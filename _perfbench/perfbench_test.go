package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// toyRun runs one workload at self-test scale.
func toyRun(t *testing.T, workload string, traced, corrupt bool) *result {
	t.Helper()
	o := options{
		seed:     1,
		budget:   time.Millisecond,
		toy:      true,
		corrupt:  corrupt,
		stateDir: t.TempDir(),
		log:      io.Discard,
	}
	if traced {
		o.spans = newSpans()
	}
	res, err := measure(workload, workloads[workload], o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryMetricIsPrinted runs every workload untraced and traced at toy
// size and checks that it passes its own checks and prints exactly the
// catalogued metrics, each with its unit.
func TestEveryMetricIsPrinted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := toyRun(t, name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = layerMetrics()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %q", name, traced, m.name, v, m.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

// TestCorruptionCountsAsFailure checks that a corrupted output — a dropped
// tick in a fast-driver result, a flipped byte in a served body — is
// counted as a failed operation.
func TestCorruptionCountsAsFailure(t *testing.T) {
	for _, name := range workloadNames() {
		res := toyRun(t, name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct=%t failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog checks that BENCHMARK.json names the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	same := func(section string, got []named, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", section, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)", section, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, layerMetrics())
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
