package xcheck

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRunScenarioMatchesTracedRun requires the served run, which has no
// flight recorder and no sensor fleet, to equal the observed oracle run
// on every observable of its Result, over the first 64 generated
// scenarios: attaching the recorder, its simulated clock and the fleet
// never perturbs a run.
func TestRunScenarioMatchesTracedRun(t *testing.T) {
	for id := uint64(1); id <= 64; id++ {
		sc := Generate(id)
		got, err := RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		a, err := build(&sc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := runExact(&sc, a, sc.Workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref.trace == nil {
			t.Fatalf("scenario %d: oracle run recorded no trace", id)
		}
		// RunScenario returns the Result alone: no fleet, no trace.
		ref.fleet, ref.trace = nil, nil
		if a, b := serializeRun(&runOutput{res: got}), serializeRun(ref); a != b {
			t.Fatalf("scenario %d: served run differs from the traced run:\n%s\nwant\n%s", id, a, b)
		}
	}
}

// TestTreeOraclesCatchCorruption checks both provenance oracle families
// against a real traced run, then corrupts the run in effigy — the moral
// equivalent of an attribution or timing bug in a driver — and requires
// each family to fire on its own corruption.
func TestTreeOraclesCatchCorruption(t *testing.T) {
	sc := exactOnlyScenario()
	a, err := build(&sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runExact(&sc, a, 1)
	if err != nil {
		t.Fatal(err)
	}

	violations := func(mutate func()) []Violation {
		if mutate != nil {
			mutate()
		}
		rep := &Report{Scenario: sc}
		checkTree(rep, "exact", out)
		return rep.Violations
	}
	fired := func(vs []Violation, oracle string) bool {
		for _, v := range vs {
			if v.Oracle == oracle {
				return true
			}
		}
		return false
	}

	if vs := violations(nil); len(vs) != 0 {
		t.Fatalf("baseline traced run not clean: %+v", vs)
	}

	// Timing corruption: shift one victim's recorded infection time. The
	// trace edge no longer matches InfectionTime → tree-time must fire.
	var shifted int
	for id, it := range out.res.InfectionTime {
		if it > 0 {
			shifted = id
			break
		}
	}
	orig := out.res.InfectionTime[shifted]
	if vs := violations(func() { out.res.InfectionTime[shifted] = orig + 0.5 }); !fired(vs, OracleTreeTime) {
		t.Fatalf("shifted infection time not flagged by %s: %+v", OracleTreeTime, vs)
	}
	out.res.InfectionTime[shifted] = orig

	// Coverage corruption: claim one more infection than the trace
	// attributes → tree-size must fire.
	if vs := violations(func() { out.res.Final.Infected++ }); !fired(vs, OracleTreeSize) {
		t.Fatalf("inflated infection count not flagged by %s: %+v", OracleTreeSize, vs)
	}
	out.res.Final.Infected--

	if vs := violations(nil); len(vs) != 0 {
		t.Fatalf("run not clean after restoring corruption: %+v", vs)
	}
}

// TestWriteTraceArtifacts: a report's retained recorders dump as NDJSON
// plus manifests that carry the scenario hash, canonical JSON, and run
// provenance — the artifact bundle CI uploads when a batch fails.
func TestWriteTraceArtifacts(t *testing.T) {
	sc := exactOnlyScenario()
	rep, err := CheckScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("scenario not clean: %+v", rep.Violations)
	}

	dir := t.TempDir()
	paths, err := rep.WriteTraceArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d artifacts, want trace + manifest: %v", len(paths), paths)
	}

	var ndjson, manifest string
	for _, p := range paths {
		switch {
		case strings.HasSuffix(p, ".trace.ndjson"):
			ndjson = p
		case strings.HasSuffix(p, ".manifest.json"):
			manifest = p
		default:
			t.Fatalf("unexpected artifact %s", p)
		}
	}

	f, err := os.Open(ndjson)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadNDJSON(f)
	f.Close()
	if err != nil {
		t.Fatalf("artifact trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("artifact trace is empty")
	}
	if _, err := trace.BuildTree(events); err != nil {
		t.Fatalf("artifact trace does not reconstruct: %v", err)
	}

	var m trace.Manifest
	body, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Driver != "exact" || m.Seed != sc.SimSeed || m.Workers != 1 {
		t.Errorf("manifest provenance wrong: %+v", m)
	}
	if want := trace.HashJSON(sc.JSON()); m.ScenarioHash != want {
		t.Errorf("manifest hash %s != scenario hash %s", m.ScenarioHash, want)
	}
	back, err := ParseScenario(m.Scenario)
	if err != nil {
		t.Fatalf("manifest scenario does not round-trip: %v", err)
	}
	if string(back.JSON()) != string(sc.JSON()) {
		t.Errorf("manifest scenario %s != original %s", back.JSON(), sc.JSON())
	}
}
