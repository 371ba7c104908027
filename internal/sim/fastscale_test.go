package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/trace"
)

// These tests enforce the internet-scale fast driver's tentpole guarantee:
// Workers is a throughput knob, never a semantics knob. For a fixed seed,
// every worker count must yield byte-identical results — Result series,
// per-host infection times, cumulative outcome tallies, sensor-fleet
// state, and the complete flight-recorder event stream.

// serializeFastRun renders everything a fast run produced, including the
// trace NDJSON (which pins infection order and component attribution).
func serializeFastRun(t *testing.T, res *Result, fleet *detect.ThresholdFleet, rec *trace.Recorder) string {
	t.Helper()
	var out strings.Builder
	for _, ti := range res.Series {
		fmt.Fprintf(&out, "%x %d %d %d %v\n", ti.Time, ti.Infected, ti.NewInfections, ti.Probes, ti.Outcomes)
	}
	for id, it := range res.InfectionTime {
		if it >= 0 {
			fmt.Fprintf(&out, "inf %d %x\n", id, it)
		}
	}
	fmt.Fprintf(&out, "cum %v\n", res.Outcomes)
	if fleet != nil {
		fmt.Fprintf(&out, "fleet hits=%d alerted=%d counts=%v\n",
			fleet.TotalHits(), fleet.NumAlerted(), fleet.Counts())
	}
	if rec != nil {
		if err := rec.WriteNDJSON(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// runFastLoaded executes one fully loaded fast run — NAT sites, loss, a
// hard-blocked /8, a sensor fleet, a fault plan with an outage, bursty
// loss, and delayed/duplicated reporting, plus a containment policy that
// engages mid-run — and serializes everything.
func runFastLoaded(t *testing.T, workers int) string {
	t.Helper()
	pop := smallPop(t, 600, 77)
	if err := pop.AssignNAT(0.3, 8, 5); err != nil {
		t.Fatal(err)
	}
	fleet := detect.MustNewThresholdFleet([]ipv4.Prefix{
		ipv4.MustParsePrefix("200.10.0.0/20"),
		ipv4.MustParsePrefix("201.20.64.0/22"),
	}, 3)
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
	var clock obs.SimClock
	ticks := 0
	res, err := RunFast(FastConfig{
		Pop:         pop,
		Model:       NewCodeRedIIModel(),
		ScanRate:    500,
		TickSeconds: 1,
		MaxSeconds:  40,
		SeedHosts:   10,
		Seed:        4242,
		Workers:     workers,
		LossRate:    0.05,
		BlockedDst:  ipv4.SetOfPrefixes(ipv4.MustParsePrefix("20.0.0.0/8")),
		Sensors:     fleet,
		SensorSet:   fleet.Union(),
		Faults:      plan,
		Trace:       rec,
		Clock:       &clock,
		Containment: &Containment{
			Trigger: func() bool { ticks++; return ticks >= 12 },
			Drop:    0.4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return serializeFastRun(t, res, fleet, rec)
}

func TestRunFastWorkersByteIdentical(t *testing.T) {
	want := runFastLoaded(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := runFastLoaded(t, workers); got != want {
			t.Errorf("Workers=%d diverged from Workers=1:\n--- workers=1 ---\n%.2000s\n--- workers=%d ---\n%.2000s",
				workers, want, workers, got)
		}
	}
}

// TestRunFastWorkersDefault: Workers = 0 (the GOMAXPROCS default) must
// also match the serial path — the default configuration is not a separate
// code path with separate semantics.
func TestRunFastWorkersDefault(t *testing.T) {
	if got, want := runFastLoaded(t, 0), runFastLoaded(t, 1); got != want {
		t.Error("Workers=0 (GOMAXPROCS default) diverged from Workers=1")
	}
}

// TestRunFastQuiescentWorkersByteIdentical exercises a scenario that is
// mostly quiescent — a small scan rate against sparse space, where nearly
// every tick's total λ is close to 0 — on four workers against one. Four
// workers cut those ticks with cutShards, which puts every group of a
// zero-λ tick in the last shard. At 2 probes/s no infection lands in 600
// ticks, so the quiet ticks' rows must still be emitted, unchanged; at
// 100 probes/s about 30 scattered ticks each infect a host, drawn by
// whichever group's near-zero λ fired, so a quiet tick whose merge
// dropped a shard, or whose cut dropped a group, shows.
func TestRunFastQuiescentWorkersByteIdentical(t *testing.T) {
	run := func(rate float64, workers int) (string, int) {
		pop := smallPop(t, 300, 21)
		rec := trace.NewRecorder(0)
		res, err := RunFast(FastConfig{
			Pop: pop, Model: NewCodeRedIIModel(),
			ScanRate: rate, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 3, Seed: 7,
			Workers: workers, Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return serializeFastRun(t, res, nil, rec), res.Final.Infected
	}
	for _, rate := range []float64{2, 100} {
		want, infected := run(rate, 1)
		if len(strings.Split(want, "\n")) < 600 {
			t.Fatalf("rate %v: fixture not quiescent enough to run all 600 ticks", rate)
		}
		if rate > 2 && infected < 20 {
			t.Fatalf("rate %v: only %d infected; the fixture must infect on quiet ticks", rate, infected)
		}
		if got, _ := run(rate, 4); got != want {
			t.Errorf("rate %v: quiescent run on 4 workers diverged from 1", rate)
		}
	}
}

// manyCompModel splits the uniform scanner into eight 1/8-weight octant
// components, so every host's group carries more components than any
// local-preference model — the coverage the old >4-pool membership spill
// path had, re-targeted at the span-union pool representation.
type manyCompModel struct {
	octants []*ipv4.Set
}

func newManyCompModel() *manyCompModel {
	m := &manyCompModel{}
	for i := 0; i < 8; i++ {
		lo := ipv4.Addr(uint32(i) << 29)
		hi := ipv4.Addr(uint32(i)<<29 | 0x1fffffff)
		m.octants = append(m.octants, ipv4.NewSet(ipv4.Interval{Lo: lo, Hi: hi}))
	}
	return m
}

func (m *manyCompModel) GroupKey(population.Host) uint64 { return 0 }

func (m *manyCompModel) Components(population.Host) []Component {
	comps := make([]Component, 0, 8)
	for _, s := range m.octants {
		comps = append(comps, Component{Weight: 0.125, Set: s})
	}
	return comps
}

func (m *manyCompModel) Name() string { return "octants" }

// TestRunFastManyComponentModel drives a group with eight components —
// every public host belongs to every octant pool's span union — and
// checks the epidemic saturates deterministically and byte-identically
// across worker counts.
func TestRunFastManyComponentModel(t *testing.T) {
	run := func(workers int) string {
		pop := smallPop(t, 400, 11)
		res, err := RunFast(FastConfig{
			Pop: pop, Model: newManyCompModel(),
			ScanRate: 200000, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 5, Seed: 9,
			Workers: workers, StopWhenInfected: 350,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final.Infected < 350 {
			t.Fatalf("eight-component epidemic stalled at %d infected", res.Final.Infected)
		}
		return serializeFastRun(t, res, nil, nil)
	}
	if got, want := run(4), run(1); got != want {
		t.Error("eight-component model diverged across worker counts")
	}
}

// privateOnlyModel confines every probe to the host's NAT site (a pure
// LAN worm): one Private component over 192.168/16.
type privateOnlyModel struct {
	private *ipv4.Set
}

func (m *privateOnlyModel) GroupKey(h population.Host) uint64 { return uint64(h.Site) }

func (m *privateOnlyModel) Components(population.Host) []Component {
	return []Component{{Weight: 1, Set: m.private, Private: true}}
}

func (m *privateOnlyModel) Name() string { return "private-only" }

// TestRunFastPrivatePoolsPerSite checks the NAT-site slot regions: a
// private-only scanner must saturate exactly the sites that received a
// seed and never touch the others.
func TestRunFastPrivatePoolsPerSite(t *testing.T) {
	pop := smallPop(t, 200, 55)
	if err := pop.AssignNAT(1.0, 20, 9); err != nil {
		t.Fatal(err)
	}
	model := &privateOnlyModel{private: ipv4.SetOfPrefixes(ipv4.MustParsePrefix("192.168.0.0/16"))}
	res, err := RunFast(FastConfig{
		Pop: pop, Model: model,
		ScanRate: 5000, TickSeconds: 1, MaxSeconds: 400, SeedHosts: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[int]bool{}
	for i, it := range res.InfectionTime {
		if it == 0 {
			seeded[pop.Host(i).Site] = true
		}
	}
	var want, got int
	for i := 0; i < pop.Size(); i++ {
		if seeded[pop.Host(i).Site] {
			want++
		}
		if res.InfectionTime[i] >= 0 {
			got++
			if !seeded[pop.Host(i).Site] {
				t.Fatalf("host %d infected in unseeded site %d", i, pop.Host(i).Site)
			}
		}
	}
	if got != want {
		t.Errorf("private-only epidemic infected %d of the %d hosts in seeded sites", got, want)
	}
}

// TestNewFastStateBytesPerHost bounds what the fast driver allocates to
// set up one run on a 10⁶-host population at 10 bytes per host: the
// infection times' 8, the live bitset's 1/8, and the block and group-run
// tables. The population's canonical order is the slot order, so any
// per-host copy of the host list — the address-sorted arena this replaced
// held ~32 bytes per host — breaks the bound.
func TestNewFastStateBytesPerHost(t *testing.T) {
	pop, err := population.Synthesize(population.InternetScale(1_000_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastConfig{Pop: pop, Model: NewCodeRedIIModel()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := newFastState(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	perHost := float64(after.TotalAlloc-before.TotalAlloc) / float64(pop.Size())
	t.Logf("newFastState allocates %.2f bytes per host", perHost)
	if perHost > 10 {
		t.Errorf("newFastState allocates %.2f bytes per host, want ≤ 10", perHost)
	}
}

// TestRunFastSteadyStateAllocs gates the tick loop's allocation churn: a
// 200-tick CodeRedII run must stay within a small allocation budget once
// the rate caches are built. The pre-arena driver spent ~26k
// allocations per run on pool compaction alone; the span/bitset engine
// does none of that.
func TestRunFastSteadyStateAllocs(t *testing.T) {
	pop := smallPop(t, 2000, 17)
	if err := pop.AssignNAT(0.3, 5, 3); err != nil {
		t.Fatal(err)
	}
	model := NewCodeRedIIModel()
	cfg := FastConfig{
		Pop: pop, Model: model,
		ScanRate: 5000, TickSeconds: 1, MaxSeconds: 200, SeedHosts: 25, Seed: 18,
	}
	// Warm the model's per-prefix set caches (shared across runs).
	if _, err := RunFast(cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := RunFast(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: population-proportional setup (group runs, live index,
	// infection times) plus per-group construction — but nothing per tick per pool.
	const budget = 4000
	if avg > budget {
		t.Errorf("RunFast allocations per run = %.0f, want ≤ %d", avg, budget)
	}
}
