package experiments

import (
	"strings"
	"testing"
)

func TestWriteMarkdown(t *testing.T) {
	res := &Result{
		Tables: []Table{{
			ID: "T1", Title: "demo",
			Columns: []string{"a", "b"},
			Rows:    [][]string{{"x|pipe", "y"}},
		}},
		Figures: []Figure{{
			ID: "F1", Title: "curve", XLabel: "t", YLabel: "v",
			Series: []Series{{Name: "s", X: []float64{0, 1, 2}, Y: []float64{0, 2, 1}}},
		}},
		Notes: []string{"a note"},
	}
	res.SetMetric("m.one", 0.5)

	var b strings.Builder
	if err := WriteMarkdown(&b, "demo-exp", res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"## demo-exp",
		"### T1 — demo",
		"| a | b |",
		"x\\|pipe", // pipes escaped inside table cells
		"### F1 — curve",
		"```",
		"* a note",
		"* `m.one` = 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownFromRegistry(t *testing.T) {
	res, err := RunObserved("table1", 1, Quick, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteMarkdown(&b, "table1", res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Bot Propagation Command") {
		t.Error("registry result did not render")
	}
}
