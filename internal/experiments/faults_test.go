package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sweep"
	"repro/internal/worm"
)

// extFaultsTestConfig is a reduced quick-scale grid shared by the tests.
func extFaultsTestConfig(seed uint64) ExtFaultsConfig {
	cfg := DefaultExtFaults(seed)
	quickFig5(&cfg.Fig5, seed)
	cfg.HitListSize = 200
	cfg.OutageFractions = []float64{0, 0.3, 0.6}
	cfg.BurstLosses = []float64{0, 0.5}
	return cfg
}

func renderResult(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	if err := WriteMarkdown(&b, "ext-faults", res); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExtFaultsMonotoneFirstAlarm is the acceptance check: within each
// burst-loss level, withdrawing a larger (nested) fraction of the fleet can
// only delay the first alarm, and the naive alerted fraction can only fall.
func TestExtFaultsMonotoneFirstAlarm(t *testing.T) {
	cfg := extFaultsTestConfig(26)
	res, err := RunExtFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alarmOf := func(b, f float64) float64 {
		a := res.Metric(fmt.Sprintf("ext-faults.burst%g.outage%g.first_alarm", b, f))
		if a < 0 {
			return math.Inf(1) // never alerted: later than any time
		}
		return a
	}
	for _, b := range cfg.BurstLosses {
		if healthy := alarmOf(b, 0); math.IsInf(healthy, 1) {
			t.Errorf("burst %g: healthy fleet never alarmed", b)
		}
		prevAlarm, prevAlerted := 0.0, 1.0
		for _, f := range cfg.OutageFractions {
			alarm := alarmOf(b, f)
			if alarm < prevAlarm {
				t.Errorf("burst %g: first alarm improved from %.0fs to %.0fs as outage rose to %g",
					b, prevAlarm, alarm, f)
			}
			prevAlarm = alarm
			alerted := res.Metric(fmt.Sprintf("ext-faults.burst%g.outage%g.alerted", b, f))
			if alerted > prevAlerted+1e-9 {
				t.Errorf("burst %g: alerted fraction rose to %.3f as outage rose to %g", b, alerted, f)
			}
			prevAlerted = alerted
			// Whole-run withdrawals never alert, so renormalizing over the
			// in-service detectors can only help.
			alertedUp := res.Metric(fmt.Sprintf("ext-faults.burst%g.outage%g.alerted_up", b, f))
			if alertedUp+1e-9 < alerted {
				t.Errorf("burst %g outage %g: alerted-of-up %.3f below naive %.3f", b, f, alertedUp, alerted)
			}
		}
	}
	if len(res.Figures) != 1 || len(res.Figures[0].Series) != len(cfg.BurstLosses) {
		t.Errorf("figure shape wrong: %+v", res.Figures)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != len(cfg.BurstLosses)*len(cfg.OutageFractions) {
		t.Errorf("table shape wrong: %d rows", len(res.Tables[0].Rows))
	}
}

// TestExtFaultsCheckpointResumeByteIdentical proves the experiment-level
// resume contract: a sweep checkpointed over a partial grid and resumed
// over the full grid re-runs only the missing points and renders byte for
// byte what an uninterrupted, checkpoint-free run renders — with telemetry
// attached to the resumed run to confirm it stays inert.
func TestExtFaultsCheckpointResumeByteIdentical(t *testing.T) {
	base := extFaultsTestConfig(27)
	base.BurstLosses = []float64{0.5}

	clean := base
	cleanRes, err := RunExtFaults(clean)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(t, cleanRes)

	// First (interrupted) pass: only the grid's endpoints complete.
	path := filepath.Join(t.TempDir(), "ext-faults.ckpt")
	cp, err := sweep.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	partial := base
	partial.OutageFractions = []float64{0, 0.6}
	partial.Checkpoint = cp
	if _, err := RunExtFaults(partial); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 2 {
		t.Fatalf("checkpoint holds %d points, want 2", cp.Len())
	}

	// Resume the full grid from the file a fresh process would open.
	resumedCP, err := sweep.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	resumed := base
	resumed.Checkpoint = resumedCP
	resumed.Fig5.OnProgress = func(done, total int) { ran.Add(1) }
	resumed.Fig5.Metrics = obs.NewRegistry()
	resumedRes, err := RunExtFaults(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("resume simulated %d points, want 1 (cached points must not rerun)", got)
	}
	if got := renderResult(t, resumedRes); got != want {
		t.Errorf("resumed run diverged from the uninterrupted one:\n--- resumed\n%s--- clean\n%s", got, want)
	}
}

func TestExtFaultsValidation(t *testing.T) {
	if _, err := RunExtFaults(ExtFaultsConfig{}); err == nil {
		t.Error("empty fault grid accepted")
	}
	bad := extFaultsTestConfig(1)
	bad.OutageFractions = []float64{1.5}
	if _, err := RunExtFaults(bad); err == nil {
		t.Error("outage fraction 1.5 accepted")
	}
	bad = extFaultsTestConfig(1)
	bad.BurstLosses = []float64{0.5}
	bad.BurstMeanGood = 0
	if _, err := RunExtFaults(bad); err == nil {
		t.Error("burst loss without dwell means accepted")
	}
}

// TestExtFaultsWithdrawsARandomFifth checks the full-scale ext-faults
// fleet at seed 1: the detectors a 20 % outage withdraws must be a random
// fifth of the fleet, not its first fifth. The fleet is listed densest /16
// first, which is the space the greedy hit list covers, so withdrawing the
// first fifth would take out only hit-list detectors and leave the others
// untouched; a random fifth takes hit-list detectors in about their share
// of the fleet.
func TestExtFaultsWithdrawsARandomFifth(t *testing.T) {
	cfg := DefaultExtFaults(1)
	pop, err := population.Synthesize(cfg.Fig5.Pop)
	if err != nil {
		t.Fatal(err)
	}
	prefixes, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), cfg.HitListSize)
	hitList := ipv4.SetOfPrefixes(prefixes...)
	placements, order := extFaultsFleet(pop, cfg.Fig5.Seed)
	n := int(0.2*float64(len(placements)) + 0.5)
	first, inList := true, 0
	for i, idx := range order[:n] {
		first = first && idx == i
		if hitList.Contains(placements[idx].First()) {
			inList++
		}
	}
	if first {
		t.Fatalf("a 20 %% outage withdraws the fleet's first %d of %d detectors", n, len(placements))
	}
	fleetInList := 0
	for _, p := range placements {
		if hitList.Contains(p.First()) {
			fleetInList++
		}
	}
	share, fleetShare := float64(inList)/float64(n), float64(fleetInList)/float64(len(placements))
	t.Logf("withdrawn %d of %d; hit-list share %.3f withdrawn, %.3f of the fleet", n, len(placements), share, fleetShare)
	if share > 2*fleetShare {
		t.Errorf("hit-list detectors are %.3f of the withdrawn fifth but %.3f of the fleet", share, fleetShare)
	}
}
