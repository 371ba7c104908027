package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "y"}, {"wide-cell", "z"}},
	}
	out := tb.Render()
	if !strings.Contains(out, "T — demo") {
		t.Error("header missing")
	}
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "wide-cell") {
		t.Error("cells missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5", len(lines))
	}
}

func TestDownsample(t *testing.T) {
	s := Series{Name: "s"}
	for i := 0; i < 1000; i++ {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, float64(i*2))
	}
	d := Downsample(s, 100)
	if len(d.X) > 101 {
		t.Errorf("downsampled to %d points, want ≤101", len(d.X))
	}
	if d.X[0] != 0 || d.X[len(d.X)-1] != 999 {
		t.Error("endpoints not preserved")
	}
	// Small series pass through untouched.
	small := Series{X: []float64{1, 2}, Y: []float64{3, 4}}
	if got := Downsample(small, 100); len(got.X) != 2 {
		t.Error("small series modified")
	}
	if got := Downsample(s, 0); len(got.X) != len(s.X) {
		t.Error("n=0 should pass through")
	}
}

func TestRegistryRunsAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds")
	}
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := RunObserved(id, 1, Quick, nil)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(res.Tables) == 0 && len(res.Figures) == 0 {
				t.Fatalf("Run(%s) produced no output", id)
			}
			if len(res.Notes) == 0 {
				t.Errorf("Run(%s) produced no notes", id)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := RunObserved("nope", 1, Quick, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{
		"ext-containment", "ext-faults", "ext-ims", "ext-natsweep", "ext-prevalence", "ext-threshold", "ext-witty",
		"fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c",
		"table1", "table2",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %s, want %s", i, names[i], n)
		}
	}
}
