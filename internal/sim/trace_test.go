package sim

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/worm"
)

// These tests enforce the flight recorder's two contracts (DESIGN.md §12):
// trace bytes are a pure function of the scenario — identical for every
// worker count — and attaching a recorder never perturbs a run, so a
// trace-on run is byte-identical to a trace-off run on every existing
// output.

// traceExactWorkers runs the same fully loaded exact scenario as
// runExactWorkers (NAT, filters, loss, sensor fleet, fault plan) with a
// flight recorder attached, and returns the run serialization plus the
// trace NDJSON bytes.
func traceExactWorkers(t *testing.T, workers int) (string, string) {
	t.Helper()
	pop := smallPop(t, 600, 77)
	if err := pop.AssignNAT(0.3, 8, 5); err != nil {
		t.Fatal(err)
	}
	env := &netenv.Environment{}
	if err := env.SetLossRate(0.05); err != nil {
		t.Fatal(err)
	}
	env.AddEgressFilter(ipv4.MustParsePrefix("20.0.0.0/8"), 0.5)
	env.AddEgressFilter(ipv4.MustParsePrefix("30.0.0.0/8"), 0.3)

	fleet := sensor.MustNewFleet([]sensor.Block{
		{Label: "A", Prefix: ipv4.MustParsePrefix("200.10.0.0/20")},
		{Label: "B", Prefix: ipv4.MustParsePrefix("201.20.64.0/22")},
	})
	plan, err := faults.Compile(faults.Config{
		Seed: 99,
		Outages: []faults.OutageConfig{
			{Block: "201.20.64.0/22", Start: 10, End: 25},
		},
		Burst:     &faults.BurstConfig{MeanGood: 12, MeanBad: 4, LossGood: 0.02, LossBad: 0.5},
		Reporting: &faults.ReportingConfig{Delay: 2, DupProb: 0.1},
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	clk := &obs.SimClock{}
	fleet.Trace(rec, clk)
	res, err := RunExact(ExactConfig{
		Pop:         pop,
		Factory:     worm.CodeRedIIFactory{},
		Env:         env,
		ScanRate:    500,
		TickSeconds: 1,
		MaxSeconds:  40,
		SeedHosts:   10,
		Seed:        4242,
		Workers:     workers,
		SensorSet:   fleet.CoverageSet(),
		OnProbe:     func(src, dst ipv4.Addr) { fleet.Observe(src, dst) },
		Faults:      plan,
		Clock:       clk,
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return serializeExactRun(t, res, fleet), buf.String()
}

// TestTraceWorkerInvariance: trace events are emitted only from the
// drivers' serial sections, so the NDJSON stream must be byte-identical
// for every worker count — the same guarantee the run outputs already
// carry, extended to the flight recorder.
func TestTraceWorkerInvariance(t *testing.T) {
	wantRun, wantTrace := traceExactWorkers(t, 1)
	if wantTrace == "" {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 3, 7} {
		gotRun, gotTrace := traceExactWorkers(t, workers)
		if gotRun != wantRun {
			t.Errorf("Workers=%d run output diverged from Workers=1", workers)
		}
		if gotTrace != wantTrace {
			t.Errorf("Workers=%d trace diverged from Workers=1:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, wantTrace, workers, gotTrace)
		}
	}
}

// TestTraceDoesNotPerturbRuns pins the non-perturbation half of the
// contract for both drivers: a recorder observes the run from its serial
// sections, draws no randomness, and changes no arithmetic, so every
// existing output is byte-identical with and without it.
func TestTraceDoesNotPerturbRuns(t *testing.T) {
	pop := smallPop(t, 400, 31)
	exact := func(rec *trace.Recorder) string {
		cfg := ExactConfig{
			Pop: pop, Factory: worm.UniformFactory{},
			ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60, SeedHosts: 8, Seed: 1234,
			Trace: rec,
		}
		if rec != nil {
			cfg.Clock = &obs.SimClock{}
		}
		res, err := RunExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}
	fast := func(rec *trace.Recorder) string {
		cfg := FastConfig{
			Pop: pop, Model: NewCodeRedIIModel(),
			ScanRate: 300, TickSeconds: 1, MaxSeconds: 300, SeedHosts: 8, Seed: 5678,
			Trace: rec,
		}
		if rec != nil {
			cfg.Clock = &obs.SimClock{}
		}
		res, err := RunFast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serializeSeries(t, res)
	}
	if off, on := exact(nil), exact(trace.NewRecorder(0)); off != on {
		t.Errorf("RunExact diverged with a flight recorder attached:\noff:\n%son:\n%s", off, on)
	}
	if off, on := fast(nil), fast(trace.NewRecorder(0)); off != on {
		t.Errorf("RunFast diverged with a flight recorder attached:\noff:\n%son:\n%s", off, on)
	}
}

// TestTraceInfectionTree checks the provenance content both drivers emit:
// the infection events of a traced run reconstruct into a valid tree whose
// size equals the run's final infected count, with edge times matching the
// per-host infection times exactly.
func TestTraceInfectionTree(t *testing.T) {
	pop := smallPop(t, 400, 31)

	check := func(name string, rec *trace.Recorder, res *Result, attributed bool) {
		t.Helper()
		tree, err := trace.BuildTree(rec.Events())
		if err != nil {
			t.Fatalf("%s: BuildTree: %v", name, err)
		}
		if got, want := tree.Size(), res.Final.Infected; got != want {
			t.Errorf("%s: tree size %d != final infected %d", name, got, want)
		}
		if len(tree.Seeds) != 8 {
			t.Errorf("%s: %d seed roots, want 8", name, len(tree.Seeds))
		}
		for _, e := range tree.Edges {
			if it := res.InfectionTime[e.Victim]; it != e.T {
				t.Errorf("%s: edge victim %d at t=%v but InfectionTime=%v", name, e.Victim, e.T, it)
			}
			if attributed && e.Infector < 0 {
				t.Errorf("%s: unattributed edge to %d in exact trace", name, e.Victim)
			}
			if !attributed && e.Infector >= 0 {
				t.Errorf("%s: attributed edge %d->%d in fast trace", name, e.Infector, e.Victim)
			}
		}
		stats := tree.Stats()
		if stats.Nodes != tree.Size() || stats.Seeds != len(tree.Seeds) {
			t.Errorf("%s: stats %+v inconsistent with tree", name, stats)
		}
	}

	recE := trace.NewRecorder(0)
	resE, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60, SeedHosts: 8, Seed: 1234,
		Trace: recE, Clock: &obs.SimClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("exact", recE, resE, true)

	recF := trace.NewRecorder(0)
	resF, err := RunFast(FastConfig{
		Pop: pop, Model: NewCodeRedIIModel(),
		ScanRate: 300, TickSeconds: 1, MaxSeconds: 300, SeedHosts: 8, Seed: 5678,
		Trace: recF, Clock: &obs.SimClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("fast", recF, resF, false)

	// The two traced runs above must themselves be reproducible: re-running
	// the exact scenario yields byte-identical NDJSON.
	recE2 := trace.NewRecorder(0)
	if _, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60, SeedHosts: 8, Seed: 1234,
		Trace: recE2, Clock: &obs.SimClock{},
	}); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := recE.WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := recE2.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two same-seed traced runs produced different NDJSON")
	}
}
