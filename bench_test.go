package hotspots

// The benchmark harness: one benchmark per table and figure of the paper
// (regenerating it at reduced scale per iteration), the ablation benches
// called out in DESIGN.md, and micro-benchmarks of the hot substrates.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cycle"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topo/proxgraph"
	"repro/internal/trace"
	"repro/internal/worm"
	"repro/internal/xcheck"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunObserved(id, uint64(i)+1, experiments.Quick, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 && len(res.Figures) == 0 {
			b.Fatal("experiment produced nothing")
		}
	}
}

// Table benchmarks.

func BenchmarkTable1BotCommands(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2FilteringLeakage(b *testing.B) { benchExperiment(b, "table2") }

// Figure benchmarks.

func BenchmarkFig1Blaster(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFig2SlammerAggregate(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3SlammerPerHost(b *testing.B)   { benchExperiment(b, "fig3") }

func BenchmarkFig3cCycleCensus(b *testing.B) {
	m := worm.SlammerMap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.TotalCycles(); got != 64 {
			b.Fatalf("census broke: %d cycles", got)
		}
	}
}

func BenchmarkFig4QuarantinedCRII(b *testing.B) { benchExperiment(b, "fig4") }

func BenchmarkFig5aHitListInfection(b *testing.B) { benchExperiment(b, "fig5a") }
func BenchmarkFig5bHitListDetection(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig5cPlacement(b *testing.B)        { benchExperiment(b, "fig5c") }

// Extension benchmarks.

func BenchmarkExtThreshold(b *testing.B)   { benchExperiment(b, "ext-threshold") }
func BenchmarkExtNATSweep(b *testing.B)    { benchExperiment(b, "ext-natsweep") }
func BenchmarkExtPrevalence(b *testing.B)  { benchExperiment(b, "ext-prevalence") }
func BenchmarkExtContainment(b *testing.B) { benchExperiment(b, "ext-containment") }
func BenchmarkExtWitty(b *testing.B)       { benchExperiment(b, "ext-witty") }
func BenchmarkExtIMS(b *testing.B)         { benchExperiment(b, "ext-ims") }
func BenchmarkExtFaults(b *testing.B)      { benchExperiment(b, "ext-faults") }

// Ablation benchmarks: each isolates one root cause by removing it.

// BenchmarkAblationSlammerIntendedB compares the cycle census of the
// corrupted increments against a proper odd increment (single full-period
// cycle — no trap states).
func BenchmarkAblationSlammerIntendedB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corrupted := worm.SlammerMap(i % 3)
		proper := cycle.MustNewMap(worm.SlammerMultiplier, rng.MSVCRTIncrement, 32)
		if corrupted.TotalCycles() <= proper.TotalCycles() {
			b.Fatal("ablation inverted")
		}
	}
}

// BenchmarkAblationBlasterSeed runs Figure 1 with a well-seeded PRNG: the
// start-address clustering (and with it the hotspot spike) disappears.
func BenchmarkAblationBlasterSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig1(uint64(i) + 1)
		cfg.Hosts = 800
		cfg.MeanUptimeSeconds = 14400
		cfg.Ticks = worm.UniformTickModel{}
		if _, err := experiments.RunFig1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCRIIUniform runs the CRII quarantine path with local
// preference disabled — the M-block hotspot vanishes.
func BenchmarkAblationCRIIUniform(b *testing.B) {
	own := ipv4.MustParseAddr("192.168.0.100")
	fleet, err := NewSensorFleet(IMSBlocks())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet.Reset()
		gen := worm.NewCodeRedIIUniform(own, uint32(i)+1)
		for p := 0; p < 200000; p++ {
			dst := gen.Next()
			if !dst.IsPrivate() {
				fleet.Observe(own, dst)
			}
		}
	}
}

// BenchmarkAblationFig2UniformSeeds runs the Slammer aggregate with
// uniformly random seeds: the aggregate non-uniformity vanishes (orbits of
// the affine map are arithmetic progressions).
func BenchmarkAblationFig2UniformSeeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig2(uint64(i) + 1)
		cfg.Hosts = 8000
		cfg.WindowProbes = 1 << 21
		cfg.ClusteredSeedFraction = 0
		if _, err := experiments.RunFig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the hot substrates.

func BenchmarkUniformScanner(b *testing.B) {
	g := worm.NewUniform(1)
	b.ResetTimer()
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		sink = g.Next()
	}
	_ = sink
}

func BenchmarkSlammerScanner(b *testing.B) {
	g := worm.NewSlammer(1, 12345)
	b.ResetTimer()
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		sink = g.Next()
	}
	_ = sink
}

func BenchmarkCodeRedIIScanner(b *testing.B) {
	g := worm.NewCodeRedII(ipv4.MustParseAddr("18.31.0.5"), 7)
	b.ResetTimer()
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		sink = g.Next()
	}
	_ = sink
}

func BenchmarkBlasterStart(b *testing.B) {
	own := ipv4.MustParseAddr("141.212.10.5")
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		sink = worm.BlasterStart(own, uint32(i))
	}
	_ = sink
}

func BenchmarkAddrSetSelect(b *testing.B) {
	pop, err := population.Synthesize(population.Config{
		Size: 10000, Slash8s: 20, Slash16s: 400, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	prefixes, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 400)
	set := ipv4.SetOfPrefixes(prefixes...)
	size := set.Size()
	b.ResetTimer()
	var sink ipv4.Addr
	for i := 0; i < b.N; i++ {
		sink = set.Select(uint64(i) % size)
	}
	_ = sink
}

// driverBenchSeed is the outbreak seed of every driver benchmark below.
// Each iteration replays the same outbreak, so ns/op prices one fixed
// workload and does not drift with -benchtime or b.N.
const driverBenchSeed = 1

// BenchmarkFastDriverEpidemic runs one small CodeRedII outbreak
// (5000 hosts, seed driverBenchSeed) through the fast driver.
func BenchmarkFastDriverEpidemic(b *testing.B) {
	pop, err := population.Synthesize(population.Config{
		Size: 5000, Slash8s: 10, Slash16s: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFast(sim.FastConfig{
			Pop:         pop,
			Model:       sim.NewCodeRedIIModel(),
			ScanRate:    1000,
			TickSeconds: 1,
			MaxSeconds:  200,
			SeedHosts:   10,
			Seed:        driverBenchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// codeRedIIPaperConfig is the paper-scale CodeRedII outbreak (§5: 134,586
// hosts, 10 probes/s, 2000 one-second ticks, 25 seed hosts) through the
// fast driver, on seed driverBenchSeed.
func codeRedIIPaperConfig(pop *population.Population, reg *obs.Registry, rec *trace.Recorder, workers int) sim.FastConfig {
	return sim.FastConfig{
		Pop:         pop,
		Model:       sim.NewCodeRedIIModel(),
		ScanRate:    10,
		TickSeconds: 1,
		MaxSeconds:  2000,
		SeedHosts:   25,
		Seed:        driverBenchSeed,
		Workers:     workers,
		Metrics:     reg,
		Trace:       rec,
		Clock:       &obs.SimClock{},
	}
}

// benchRunFastCodeRedII runs codeRedIIPaperConfig once per iteration. The
// *Metrics variant attaches a live obs.Registry to price the telemetry hot
// path; the *Trace variant attaches a fresh flight recorder per iteration,
// as every traced CLI run and hotspotd job does, so ns/op prices the
// recorder's full cost including its ring blocks.
func benchRunFastCodeRedII(b *testing.B, reg *obs.Registry, traced bool, workers int) {
	b.Helper()
	pop, err := population.Synthesize(population.DefaultCodeRedII(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder(0)
		}
		if _, err := sim.RunFast(codeRedIIPaperConfig(pop, reg, rec, workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunFastCodeRedII(b *testing.B) { benchRunFastCodeRedII(b, nil, false, 1) }
func BenchmarkRunFastCodeRedIIMetrics(b *testing.B) {
	benchRunFastCodeRedII(b, obs.NewRegistry(), false, 1)
}
func BenchmarkRunFastCodeRedIITrace(b *testing.B) { benchRunFastCodeRedII(b, nil, true, 1) }

// BenchmarkFlightRecorderOverhead's gate: the median traced/plain ratio
// over flightRecorderPairs interleaved pairs may not exceed
// maxFlightRecorderOverhead. A single pair's ratio ranges from about 0.9
// to 1.4 on a shared host.
const (
	flightRecorderPairs       = 15
	maxFlightRecorderOverhead = 1.15
)

// BenchmarkFlightRecorderOverhead gates the flight recorder's cost on
// codeRedIIPaperConfig by wall-time ratio. Pairs alternate which run goes
// first, each traced run gets a fresh recorder, and a GC before every
// timed run keeps one run's garbage off the next one's clock. Every
// iteration times a full set of pairs, so the bound is never judged on
// fewer; run it as
//
//	go test -run '^$' -bench '^BenchmarkFlightRecorderOverhead$' -benchtime 1x .
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	pop, err := population.Synthesize(population.DefaultCodeRedII(1))
	if err != nil {
		b.Fatal(err)
	}
	run := func(rec *trace.Recorder) float64 {
		runtime.GC()
		start := time.Now()
		if _, err := sim.RunFast(codeRedIIPaperConfig(pop, nil, rec, 1)); err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios := make([]float64, flightRecorderPairs)
		for p := range ratios {
			var plain, traced float64
			if p%2 == 0 {
				plain = run(nil)
				traced = run(trace.NewRecorder(0))
			} else {
				traced = run(trace.NewRecorder(0))
				plain = run(nil)
			}
			ratios[p] = traced / plain
		}
		slices.Sort(ratios)
		median := ratios[len(ratios)/2]
		b.ReportMetric(median, "traced/plain")
		if median > maxFlightRecorderOverhead {
			b.Fatalf("flight recorder overhead: median traced/plain %.3f over %d pairs exceeds %.2f (sorted ratios %.3f)",
				median, len(ratios), maxFlightRecorderOverhead, ratios)
		}
	}
}

// BenchmarkRunFastCodeRedIIParallel runs the same workload through the fast
// driver's two-phase tick at GOMAXPROCS workers. On a single-CPU host it
// measures the draw/merge coordination overhead rather than a speedup; on
// multi-core hosts it tracks the parallel fast driver's scaling. Results are
// byte-identical to the serial benchmark's by the Workers contract
// (DESIGN.md §14).
func BenchmarkRunFastCodeRedIIParallel(b *testing.B) { benchRunFastCodeRedII(b, nil, false, 0) }

// benchRunFastInternetScale drives a CodeRedII outbreak over an
// internet-scale synthetic population to half prevalence — the §14 scale
// contract's headline workload. Population synthesis sits outside the
// timed region; the measured run covers group-run set-up, the bitset
// live index, and the event-driven tick loop, on seed driverBenchSeed
// every iteration. Skipped under -short (the 10⁸-host population alone
// holds multiple GiB).
func benchRunFastInternetScale(b *testing.B, size, stop int) {
	b.Helper()
	if testing.Short() {
		b.Skip("internet-scale workload skipped under -short")
	}
	pop, err := population.Synthesize(population.InternetScale(size, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFast(sim.FastConfig{
			Pop:              pop,
			Model:            sim.NewCodeRedIIModel(),
			ScanRate:         200,
			TickSeconds:      1,
			MaxSeconds:       600,
			SeedHosts:        25,
			Seed:             driverBenchSeed,
			StopWhenInfected: stop,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Final.Infected < stop {
			b.Fatalf("outbreak stalled at %d/%d infected", res.Final.Infected, stop)
		}
	}
}

// The 10⁷-host leg runs the epidemic to half prevalence (the full logistic
// including its dense-/16 saturation tail); the 10⁸-host leg stops at ten
// million infections, which pins per-infection cost at full address-space
// scale while keeping one iteration's run time bounded.
func BenchmarkRunFastInternetScale10M(b *testing.B) {
	benchRunFastInternetScale(b, 10_000_000, 5_000_000)
}

func BenchmarkRunFastInternetScale100M(b *testing.B) {
	benchRunFastInternetScale(b, 100_000_000, 10_000_000)
}

// BenchmarkProxGraphNew prices proxgraph.New on its own: the same
// 100k-node, Degree-8, 1000-sensor world every iteration (seed 1, nothing
// derived from i), so ns/op is one world build —
// BenchmarkRunFastProxGraph keeps construction outside its timed region.
func BenchmarkProxGraphNew(b *testing.B) {
	cfg := proxgraph.Config{Nodes: 100_000, Degree: 8, Sensors: 1000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := proxgraph.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFastProxGraph drives a neighbor-graph outbreak over a
// 100k-node mutual-kNN world to half prevalence, on seed driverBenchSeed
// every iteration. World construction sits outside the timed region; the
// measured run is the graph fast driver's thinned per-agent Poisson
// loop, which shares nothing with the IPv4 slot path.
func BenchmarkRunFastProxGraph(b *testing.B) {
	world, err := proxgraph.New(proxgraph.Config{
		Nodes: 100_000, Degree: 8, Sensors: 1000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	const stop = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFast(sim.FastConfig{
			Topology:         world,
			ScanRate:         2,
			TickSeconds:      1,
			MaxSeconds:       600,
			SeedHosts:        25,
			Seed:             driverBenchSeed,
			StopWhenInfected: stop,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Final.Infected < stop {
			b.Fatalf("outbreak stalled at %d/%d infected", res.Final.Infected, stop)
		}
	}
}

// BenchmarkRunFastGraph1M runs the graph-1m benchmark workload's outbreak
// — the 10⁶-node, Degree-8, 10⁴-sensor world of seed 1, 2 probes/s, 25
// seed hosts, one worker, to 500,000 infections — at sim seeds 1 and 2,
// and fails unless each run's resultDigest matches the value captured
// before the graph driver's single-pass tick. It pins byte identity at
// the scale the golden tests' 1500-node worlds stand in for. The world
// takes seconds to build, so it runs as a benchmark (-benchtime 1x).
func BenchmarkRunFastGraph1M(b *testing.B) {
	if testing.Short() {
		b.Skip("10⁶-node graph workload skipped under -short")
	}
	world, err := proxgraph.New(proxgraph.Config{Nodes: 1_000_000, Degree: 8, Sensors: 10_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	want := map[uint64]string{
		1: "dca9408d381e2bfafd6282d8a63a5fe68347330487c764c47c14cc7d68f1d0d0",
		2: "7b3750d8333948658044863595c1cfa641a7ef1be46d6e7e40f5f54af39df629",
	}
	const stop = 500_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seed := range []uint64{1, 2} {
			res, err := sim.RunFast(sim.FastConfig{
				Topology: world, ScanRate: 2, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 25,
				Seed: seed, Workers: 1, StopWhenInfected: stop,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := resultDigest(res); res.Final.Infected < stop || got != want[seed] {
				b.Fatalf("seed %d: %d infected, digest %s; want ≥ %d infected, digest %s",
					seed, res.Final.Infected, got, stop, want[seed])
			}
			b.StartTimer()
		}
	}
}

// resultDigest is the SHA-256 of a run's Series, Final, InfectionTime and
// cumulative Outcomes, with every float taken bit for bit.
func resultDigest(res *sim.Result) string {
	var buf []byte
	tick := func(ti sim.TickInfo) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ti.Time))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ti.Infected))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ti.NewInfections))
		buf = binary.LittleEndian.AppendUint64(buf, ti.Probes)
		for _, c := range ti.Outcomes {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
	}
	for _, ti := range res.Series {
		tick(ti)
	}
	tick(res.Final)
	for _, it := range res.InfectionTime {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it))
	}
	for _, c := range res.Outcomes {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

func benchRunExactCodeRedII(b *testing.B, reg *obs.Registry, workers int) {
	b.Helper()
	// A CodeRedII-shaped population small enough for the probe-exact
	// driver; StopWhenInfected caps the saturated tail, and every
	// iteration replays seed driverBenchSeed.
	pop, err := population.Synthesize(population.Config{
		Size: 2000, Slash8s: 8, Slash16s: 40, Include192Slash8: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunExact(sim.ExactConfig{
			Pop:              pop,
			Factory:          worm.CodeRedIIFactory{},
			ScanRate:         50,
			TickSeconds:      1,
			MaxSeconds:       30,
			SeedHosts:        10,
			Seed:             driverBenchSeed,
			Workers:          workers,
			StopWhenInfected: pop.Size() / 2,
			Metrics:          reg,
			Clock:            &obs.SimClock{},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkRunExactCodeRedII(b *testing.B) { benchRunExactCodeRedII(b, nil, 1) }
func BenchmarkRunExactCodeRedIIMetrics(b *testing.B) {
	benchRunExactCodeRedII(b, obs.NewRegistry(), 1)
}

// BenchmarkRunExactCodeRedIIParallel runs the same workload through the
// worker pool at GOMAXPROCS. On a single-CPU host it measures the two-phase
// tick's coordination overhead rather than a speedup; on multi-core hosts it
// tracks the parallel driver's scaling. Results are byte-identical to the
// serial benchmark's by the Workers contract (DESIGN.md §9).
func BenchmarkRunExactCodeRedIIParallel(b *testing.B) { benchRunExactCodeRedII(b, nil, 0) }

// BenchmarkExactDriverProbes prices the exact driver's per-probe path:
// a uniform scanner at 1000 probes/s over 1000 hosts for 20 ticks, on
// seed driverBenchSeed every iteration.
func BenchmarkExactDriverProbes(b *testing.B) {
	pop, err := population.Synthesize(population.Config{
		Size: 1000, Slash8s: 5, Slash16s: 20, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunExact(sim.ExactConfig{
			Pop:         pop,
			Factory:     worm.UniformFactory{},
			ScanRate:    1000,
			TickSeconds: 1,
			MaxSeconds:  20,
			SeedHosts:   10,
			Seed:        driverBenchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkExactServeWindow runs the job window of the serve-mix workload
// (_perfbench): the 64 scenarios xcheck.Generate(1…64), each on one
// worker, through xcheck.RunScenario, the call a hotspotd job makes. It
// prices the exact driver on that mix without the server, journal and
// clients around it.
func BenchmarkExactServeWindow(b *testing.B) {
	scs := make([]xcheck.Scenario, 64)
	for i := range scs {
		scs[i] = xcheck.Generate(uint64(i) + 1)
		scs[i].Workers = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			if _, err := xcheck.RunScenario(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFleetObserve drives the detection-fleet hit path — per-probe
// RecordHit plus the per-tick service accounting — optionally under a fault
// plan that withdraws half the blocks (the down-mask and the per-probe
// SensorDown query the fast driver issues).
func benchFleetObserve(b *testing.B, withFaults bool) {
	b.Helper()
	prefixes := make([]ipv4.Prefix, 0, 255)
	for i := 1; i <= 255; i++ {
		prefixes = append(prefixes, ipv4.MustParsePrefix(fmt.Sprintf("192.%d.0.0/16", i)))
	}
	var plan *faults.Plan
	if withFaults {
		cfg := faults.Config{Seed: 1}
		for i := 0; i < len(prefixes); i += 2 {
			cfg.Outages = append(cfg.Outages, faults.OutageConfig{
				Block: prefixes[i].String(), Start: 0, End: 1e9,
			})
		}
		var err error
		plan, err = faults.Compile(cfg, 1e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	// A fixed probe stream, ~half landing inside the fleet.
	r := rng.NewXoshiro(7)
	probes := make([]ipv4.Addr, 4096)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = ipv4.Addr(0xC0000000 | r.Uint64n(1<<24)) // 192.0.0.0/8
		} else {
			probes[i] = ipv4.Addr(r.Uint64n(1 << 32))
		}
	}
	fleet := detect.MustNewThresholdFleet(prefixes, 25)
	if plan != nil {
		fleet.SetDownSet(plan.DownSpace())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i)
		for _, dst := range probes {
			if plan.SensorDown(dst, t) {
				continue
			}
			fleet.RecordHit(dst)
		}
		if fleet.NumUp() == 0 || fleet.AlertedFractionOfUp() < 0 {
			b.Fatal("fleet accounting broke")
		}
	}
}

func BenchmarkFleetObserve(b *testing.B)       { benchFleetObserve(b, false) }
func BenchmarkFleetObserveFaults(b *testing.B) { benchFleetObserve(b, true) }

// BenchmarkSweepResume measures the checkpoint replay path: every task is
// already in the store, so one iteration is a full resume — open the file,
// map the grid, serve all results from cache without running a task.
func BenchmarkSweepResume(b *testing.B) {
	const tasks = 256
	inputs := make([]int, tasks)
	for i := range inputs {
		inputs[i] = i
	}
	key := func(i, in int) string { return fmt.Sprintf("bench|task=%d", in) }
	path := b.TempDir() + "/resume.ckpt"
	cp, err := sweep.OpenCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
	warm := func(_ context.Context, in int) (int, error) { return in * in, nil }
	if _, err := sweep.MapCheckpointed(context.Background(), inputs, key, warm, cp, sweep.Options{}); err != nil {
		b.Fatal(err)
	}
	cold := func(_ context.Context, in int) (int, error) {
		return 0, fmt.Errorf("task %d not served from cache", in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := sweep.OpenCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		out, err := sweep.MapCheckpointed(context.Background(), inputs, key, cold, cp, sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != tasks || out[3] != 9 {
			b.Fatal("resume returned wrong results")
		}
	}
}
