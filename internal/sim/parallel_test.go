package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/sensor"
	"repro/internal/worm"
)

// These tests enforce the tentpole guarantee of the parallel exact driver:
// Workers is a throughput knob, never a semantics knob. For a fixed seed,
// every worker count must yield byte-identical results — Result series,
// per-host infection times, cumulative outcome tallies, and the complete
// observable state of a sensor fleet wired through OnProbe.

// serializeExactRun renders everything an exact run produced, including
// every per-/24 sensor counter, with exact float formatting.
func serializeExactRun(t *testing.T, res *Result, fleet *sensor.Fleet) string {
	t.Helper()
	out := ""
	for _, ti := range res.Series {
		out += fmt.Sprintf("%x %d %d %d %v\n", ti.Time, ti.Infected, ti.NewInfections, ti.Probes, ti.Outcomes)
	}
	for id, it := range res.InfectionTime {
		if it >= 0 {
			out += fmt.Sprintf("inf %d %x\n", id, it)
		}
	}
	out += fmt.Sprintf("cum %v\n", res.Outcomes)
	if fleet != nil {
		for _, s := range fleet.Sensors() {
			out += fmt.Sprintf("sensor %v total=%d uniq=%d\n",
				s.Block(), s.TotalAttempts(), s.UniqueSources())
			for _, st := range s.PerSlash24() {
				if st.Attempts > 0 {
					out += fmt.Sprintf("  /24 %v a=%d u=%d\n", st.First, st.Attempts, st.UniqueSources)
				}
			}
		}
	}
	return out
}

// runExactWorkers executes one fully loaded exact run — NAT sites,
// egress filtering, loss, a sensor fleet behind OnProbe, and a
// fault plan with an outage, bursty loss, and delayed/duplicated
// reporting — with the given worker count, and serializes everything.
func runExactWorkers(t *testing.T, workers int) string {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return serializeExactRun(t, res, fleet)
}

func TestRunExactWorkersByteIdentical(t *testing.T) {
	want := runExactWorkers(t, 1)
	for _, workers := range []int{2, 3, 4, 7} {
		if got := runExactWorkers(t, workers); got != want {
			t.Errorf("Workers=%d diverged from Workers=1:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestRunExactWorkersDefault: Workers = 0 (the GOMAXPROCS default) must
// also match the serial path — the default configuration is not a
// separate code path with separate semantics.
func TestRunExactWorkersDefault(t *testing.T) {
	if got, want := runExactWorkers(t, 0), runExactWorkers(t, 1); got != want {
		t.Error("Workers=0 (GOMAXPROCS default) diverged from Workers=1")
	}
}

// TestRunExactParallelConservation re-checks the conservation invariant
// under the parallel path specifically: with multiple shards merging,
// every tick's outcome tallies must still sum to its probe count.
func TestRunExactParallelConservation(t *testing.T) {
	pop := smallPop(t, 400, 31)
	res, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60, SeedHosts: 8, Seed: 1234,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalProbes uint64
	for _, ti := range res.Series {
		if got := ti.Outcomes.Total(); got != ti.Probes {
			t.Fatalf("t=%v: outcomes total %d != probes %d (%v)", ti.Time, got, ti.Probes, ti.Outcomes)
		}
		totalProbes += ti.Probes
	}
	if got := res.Outcomes.Total(); got != totalProbes {
		t.Fatalf("cumulative outcomes total %d != run probes %d", got, totalProbes)
	}
}

// TestRunExactParallelHitListShared pins the shared-hit-list race fixed in
// ipv4.Set.Freeze: every agent of a hit-list worm shares one ipv4.Set, and
// Select's rank index used to be built lazily on first call — a hidden
// write racing across phase-1 workers. The set here is built fresh (index
// unbuilt) so the race detector would catch a regression; byte-identity
// against the serial run guards the semantics.
func TestRunExactParallelHitListShared(t *testing.T) {
	run := func(workers int) *Result {
		pop := smallPop(t, 300, 17)
		prefixes, _ := worm.BuildGreedySlash16HitList(pop.Addrs(true), 8)
		list := ipv4.SetOfPrefixes(prefixes...)
		res, err := RunExact(ExactConfig{
			Pop:      pop,
			Factory:  worm.HitListFactory{ListSet: list},
			ScanRate: 800, TickSeconds: 1, MaxSeconds: 40, SeedHosts: 6, Seed: 77,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(1), run(4)
	if len(want.Series) != len(got.Series) {
		t.Fatalf("series length %d vs %d", len(want.Series), len(got.Series))
	}
	for i := range want.Series {
		if want.Series[i] != got.Series[i] {
			t.Fatalf("tick %d: %+v vs %+v", i, want.Series[i], got.Series[i])
		}
	}
}
