package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encoding/json"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(data)
}

func TestRunWorms(t *testing.T) {
	common := []string{"-pop", "5000", "-t", "100", "-rate", "200", "-seed", "2"}
	for _, wormName := range []string{"uniform", "hitlist", "codered2"} {
		args := append([]string{"-worm", wormName}, common...)
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("worm %s: %v", wormName, err)
		}
	}
}

func TestRunWithSensorsAndPlot(t *testing.T) {
	if err := run(context.Background(), []string{
		"-worm", "codered2", "-pop", "5000", "-t", "100", "-rate", "200",
		"-nat", "0.2", "-sensors", "200", "-placement", "top20", "-plot",
	}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-worm", "codered2", "-pop", "5000", "-t", "60", "-rate", "200",
		"-nat", "0.2", "-placement", "192sweep",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithContainment(t *testing.T) {
	if err := run(context.Background(), []string{
		"-worm", "codered2", "-pop", "5000", "-t", "120", "-rate", "200",
		"-nat", "0.2", "-placement", "192sweep", "-contain-at", "0.1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-worm", "uniform", "-pop", "2000", "-t", "20", "-contain-at", "0.1",
	}); err == nil {
		t.Error("containment without sensors accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{
			"-worm", "codered2", "-pop", "5000", "-t", "100", "-rate", "200",
			"-placement", "192sweep", "-outage", "0.5", "-burst", "0.6",
		})
	})
	for _, want := range []string{"withdrew 128/255 sensor blocks", "burst channel", "degraded fleet: 127/255 in service", "sensor-down"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithFaultsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	cfg := `{"seed": 7, "burst": {"mean_good": 20, "mean_bad": 5, "loss_good": 0, "loss_bad": 0.8}}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-worm", "uniform", "-pop", "3000", "-t", "60", "-rate", "200", "-faults", path,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"burst": {"mean_good": -1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-worm", "uniform", "-pop", "3000", "-t", "60", "-faults", path}); err == nil {
		t.Error("invalid fault config accepted")
	}
}

// TestRunRejectsMisconfigFaults pins that -faults fails on a plan with a
// misconfig section, which no driver models, instead of running fault-free.
func TestRunRejectsMisconfigFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"misconfig":{"fraction":0.5,"mode":"gap"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-worm", "uniform", "-pop", "3000", "-t", "60", "-faults", path})
	if err == nil || !strings.Contains(err.Error(), `unknown field "misconfig"`) {
		t.Fatalf("run(-faults misconfig) = %v, want an unknown-field error", err)
	}
}

// TestCheckpointedRerunIsByteIdentical is the CLI resume contract: a rerun
// with identical parameters against the same checkpoint file replays the
// cached summary byte for byte instead of re-simulating.
func TestCheckpointedRerunIsByteIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{
		"-worm", "codered2", "-pop", "5000", "-t", "100", "-rate", "200",
		"-placement", "192sweep", "-outage", "0.3", "-plot",
		"-checkpoint", ckpt,
	}
	first := captureStdout(t, func() error { return run(context.Background(), args) })
	second := captureStdout(t, func() error { return run(context.Background(), args) })
	if first != second {
		t.Errorf("checkpointed rerun diverged:\n--- first\n%s--- second\n%s", first, second)
	}
	cp, err := sweep.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 1 {
		t.Errorf("checkpoint holds %d entries, want 1", cp.Len())
	}
	// Changing a parameter is a different key: the cache must not serve it.
	third := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-seed", "9"}, args...))
	})
	if third == first {
		t.Error("different seed replayed the cached run")
	}
	if cp, err = sweep.OpenCheckpoint(ckpt); err != nil || cp.Len() != 2 {
		t.Errorf("checkpoint after second key: len=%d err=%v, want 2 entries", cp.Len(), err)
	}
}

// TestRunFastWorkersFlag: -workers drives the fast driver too — every
// count prints identical output, and a negative count is rejected with the
// same message contract as the exact driver.
func TestRunFastWorkersFlag(t *testing.T) {
	base := []string{"-worm", "codered2", "-pop", "5000", "-t", "100", "-rate", "200", "-seed", "3"}
	serial := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-workers", "1"}, base...))
	})
	parallel := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-workers", "4"}, base...))
	})
	if serial != parallel {
		t.Errorf("fast driver output depends on -workers:\n--- workers=1\n%s--- workers=4\n%s", serial, parallel)
	}
	err := run(context.Background(), append([]string{"-workers", "-2"}, base...))
	if err == nil || !strings.Contains(err.Error(), "negative worker count") {
		t.Errorf("negative -workers not rejected by the fast driver: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(context.Background(), []string{"-worm", "nope"}); err == nil {
		t.Error("unknown worm accepted")
	}
	if err := run(context.Background(), []string{"-worm", "codered2", "-sensors", "10", "-placement", "nowhere", "-pop", "2000", "-t", "10"}); err == nil {
		t.Error("unknown placement accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunWithTrace: -trace dumps a parseable NDJSON flight recording plus
// a provenance manifest, and two same-seed traced runs dump byte-identical
// traces.
func TestRunWithTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.ndjson")
	args := []string{
		"-worm", "hitlist", "-pop", "5000", "-t", "100", "-rate", "200",
		"-sensors", "200", "-seed", "2", "-trace", tracePath,
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadNDJSON(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(events) < 2 {
		t.Fatalf("trace has only %d events", len(events))
	}
	if _, err := trace.BuildTree(events); err != nil {
		t.Fatalf("trace does not reconstruct a tree: %v", err)
	}
	manifest, err := os.ReadFile(tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m trace.Manifest
	if err := json.Unmarshal(manifest, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Driver != "fast" || m.Seed != 2 || m.Events != len(events)-1 {
		t.Errorf("manifest provenance wrong: %+v", m)
	}

	again := filepath.Join(dir, "again.ndjson")
	args[len(args)-1] = again
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	body2, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(body2) {
		t.Error("two same-seed traced runs dumped different traces")
	}
}

// TestCheckpointResumeAfterInterrupt is the SIGINT/SIGTERM contract: an
// interrupted run reports an error and leaves no partial summary in the
// checkpoint, and a rerun against the same file completes with output
// byte-identical to a run that was never interrupted.
func TestCheckpointResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "resume.ckpt")
	args := []string{
		"-worm", "codered2", "-pop", "5000", "-t", "100", "-rate", "200",
		"-placement", "192sweep", "-outage", "0.3",
		"-checkpoint", ckpt,
	}

	// signal.NotifyContext in main cancels the run context; simulate the
	// signal by handing run an already-cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, args); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if cp, err := sweep.OpenCheckpoint(ckpt); err != nil {
		t.Fatalf("checkpoint unreadable after interrupt: %v", err)
	} else if cp.Len() != 0 {
		t.Fatalf("interrupted run checkpointed %d partial entries", cp.Len())
	}

	// Resume against the same checkpoint file and compare with a run that
	// never saw the interrupt (fresh checkpoint).
	resumed := captureStdout(t, func() error { return run(context.Background(), args) })
	freshArgs := append([]string(nil), args...)
	freshArgs[len(freshArgs)-1] = filepath.Join(dir, "fresh.ckpt")
	fresh := captureStdout(t, func() error { return run(context.Background(), freshArgs) })
	if resumed != fresh {
		t.Errorf("resumed run diverged from uninterrupted run:\n--- resumed\n%s--- fresh\n%s", resumed, fresh)
	}
	// The completed run is now cached: a third run replays it byte for byte.
	replayed := captureStdout(t, func() error { return run(context.Background(), args) })
	if replayed != resumed {
		t.Error("replay after resume diverged from the resumed run")
	}
}
