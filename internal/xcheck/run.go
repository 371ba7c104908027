package xcheck

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/detect"
	"repro/internal/epidemic"
	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/proxgraph"
	"repro/internal/trace"
	"repro/internal/worm"
)

// Test hooks. Production code never sets these; the harness's own tests
// use them to inject known bugs and prove the oracles catch them (the
// "revert a bugfix, watch it get flagged" acceptance check, without
// shipping the bug).
var (
	// testMutateResult, when non-nil, corrupts a completed run before the
	// oracles audit it. driver is "exact" or "fast"; workers is the exact
	// run's worker count (0 for fast runs).
	testMutateResult func(driver string, workers int, res *sim.Result)
	// testFitBeta routes the analytic oracle's regression; tests swap in a
	// broken implementation to emulate reverting the FitBeta validation
	// fix.
	testFitBeta = epidemic.FitBeta
)

// artifacts is everything a scenario expands into before a run: the
// synthesized population, the worm factory and (when differential) its
// fast-model counterpart, the environment, the compiled fault plan, and
// sensor placement.
type artifacts struct {
	pop       *population.Population
	factory   worm.Factory
	model     sim.RateModel // nil when the worm has no fast model
	env       *netenv.Environment
	plan      *faults.Plan
	sensors   []ipv4.Prefix
	sensorSet *ipv4.Set
	hitList   *ipv4.Set
	hitCover  float64
	graph     topo.Graph // non-nil for graph-topology scenarios; the rest stay zero
}

// size is the scenario's host-universe size: population hosts on IPv4,
// node count on a graph world. Oracles index InfectionTime with it.
func (a *artifacts) size() int {
	if a.graph != nil {
		return a.graph.Nodes()
	}
	return a.pop.Size()
}

// build expands a validated scenario into its artifacts. Construction is
// deterministic: every random choice flows from the scenario's seeds.
func build(sc *Scenario) (*artifacts, error) {
	if sc.Topology == TopoProxGraph {
		w, err := proxgraph.New(proxgraph.Config{
			Nodes:   sc.GraphNodes,
			Degree:  sc.GraphDegree,
			Radius:  sc.GraphRadius,
			Sensors: sc.GraphSensors,
			Seed:    sc.GraphSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("xcheck: graph world: %w", err)
		}
		// The drivers trust the world's adjacency contract; audit it here
		// once per scenario rather than once per replica run.
		if err := topo.ValidateGraph(w); err != nil {
			return nil, fmt.Errorf("xcheck: graph world: %w", err)
		}
		return &artifacts{graph: w}, nil
	}
	pop, err := population.Synthesize(population.Config{
		Size:             sc.PopSize,
		Slash8s:          sc.Slash8s,
		Slash16s:         sc.Slash16s,
		Include192Slash8: sc.Include192,
		Seed:             sc.PopSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("xcheck: population: %w", err)
	}
	if sc.NATFraction > 0 {
		if err := pop.AssignNAT(sc.NATFraction, sc.NATHostsPerSite, sc.NATSeed); err != nil {
			return nil, fmt.Errorf("xcheck: NAT: %w", err)
		}
	}
	a := &artifacts{pop: pop}

	switch sc.Worm {
	case WormUniform:
		a.factory = worm.UniformFactory{}
		a.model = sim.NewUniformModel()
	case WormHitList:
		// Public addresses only: listing NATed hosts' private addresses
		// would let exact-driver seeds infect sitemates through the list —
		// a path the fast HitListModel cannot express, and a spurious
		// differential violation.
		prefixes, cover := worm.BuildGreedySlash16HitList(pop.Addrs(true), sc.HitListSlash16s)
		a.hitList = ipv4.SetOfPrefixes(prefixes...)
		a.hitCover = cover
		a.factory = worm.HitListFactory{ListSet: a.hitList}
		a.model = &sim.HitListModel{List: a.hitList}
	case WormCodeRedII:
		a.factory = worm.CodeRedIIFactory{}
		a.model = sim.NewCodeRedIIModel()
	case WormBlaster:
		a.factory = worm.BlasterFactory{Ticks: worm.DefaultRebootTickModel()}
	case WormSlammer:
		a.factory = worm.SlammerFactory{Variant: sc.SlammerVariant}
	case WormWitty:
		a.factory = worm.WittyFactory{}
	default:
		return nil, fmt.Errorf("xcheck: unknown worm %q", sc.Worm)
	}

	if sc.LossRate > 0 || sc.EgressDrop > 0 {
		env := &netenv.Environment{}
		if err := env.SetLossRate(sc.LossRate); err != nil {
			return nil, fmt.Errorf("xcheck: %w", err)
		}
		if sc.EgressDrop > 0 {
			p, err := ipv4.NewPrefix(ipv4.Addr(pop.Host(0).Addr.Slash8()<<24), 8)
			if err != nil {
				return nil, fmt.Errorf("xcheck: egress prefix: %w", err)
			}
			env.AddEgressFilter(p, sc.EgressDrop)
		}
		a.env = env
	}

	if sc.Sensors > 0 {
		exclude := &ipv4.Set{}
		for _, addr := range pop.Addrs(false) {
			exclude.AddAddr(addr)
		}
		a.sensors, err = detect.RandomSlash24s(sc.Sensors, sc.SensorSeed, exclude)
		if err != nil {
			return nil, fmt.Errorf("xcheck: sensor placement: %w", err)
		}
		a.sensorSet = ipv4.SetOfPrefixes(a.sensors...)
	}

	// Assemble the fault plan: the scenario's burst/reporting config plus
	// sensor outages resolved against the placed fleet. The plan horizon
	// extends one tick past the run so scheduled windows can cover the
	// final tick (Compile clamps spans to its horizon).
	var fc faults.Config
	if sc.Faults != nil {
		fc = *sc.Faults
	}
	seen := make(map[string]bool)
	for _, w := range sc.SensorOutages {
		if len(a.sensors) == 0 {
			return nil, fmt.Errorf("xcheck: sensor outage without sensors")
		}
		block := a.sensors[w.SensorIndex%len(a.sensors)].String()
		// Two windows can resolve to one block (indices wrap); the fault
		// plan wants one outage per block, so the first window wins.
		if seen[block] {
			continue
		}
		seen[block] = true
		fc.Outages = append(fc.Outages, faults.OutageConfig{
			Block: block, Start: w.Start, End: w.End,
		})
	}
	if fc.Burst != nil || fc.Reporting != nil || len(fc.Outages) > 0 {
		plan, err := faults.Compile(fc, sc.MaxSeconds+sc.TickSeconds)
		if err != nil {
			return nil, fmt.Errorf("xcheck: faults: %w", err)
		}
		a.plan = plan
	}
	return a, nil
}

// runOutput is one completed run plus the observation state the oracles
// audit alongside it.
type runOutput struct {
	res   *sim.Result
	fleet *detect.ThresholdFleet // nil without sensors
	trace *trace.Recorder        // flight recorder attached to the run
}

// RunScenario validates, expands, and runs one scenario on the exact
// driver with the scenario's own worker count, returning the run result.
// It is the serving layer's one-shot entry point: the result is a pure
// function of the scenario bytes (the §9 determinism contract covers every
// worker count), so two calls with the same scenario — on one machine or
// across a crash/restart — produce identical results. A cancelled ctx
// stops the run at the next tick boundary and returns ctx's error; no
// partial result escapes.
func RunScenario(ctx context.Context, sc Scenario) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	a, err := build(&sc)
	if err != nil {
		return nil, err
	}
	out, err := runExactCtx(ctx, &sc, a, sc.Workers)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out.res, nil
}

// runExact executes the scenario on the exact driver with the given worker
// count. Each call builds a fresh fleet so observation state never leaks
// between the byte-identity runs. Every run carries a flight recorder:
// the byte-identity oracle compares trace bytes alongside run outputs,
// and the tree oracles audit the recorded infection provenance.
func runExact(sc *Scenario, a *artifacts, workers int) (*runOutput, error) {
	return runExactCtx(context.Background(), sc, a, workers)
}

// runExactCtx is runExact with cooperative cancellation: the run's OnTick
// hook watches ctx and stops the tick loop once it is done. Observing ctx
// never perturbs the run — OnTick draws no randomness — so a run that is
// not cancelled is byte-identical to one executed without a context.
func runExactCtx(ctx context.Context, sc *Scenario, a *artifacts, workers int) (*runOutput, error) {
	rec := trace.NewRecorder(0)
	clk := &obs.SimClock{}
	out := &runOutput{trace: rec}
	cfg := sim.ExactConfig{
		Topology:         a.graph, // nil for IPv4 scenarios: the reference world
		ScanRate:         sc.ScanRate,
		TickSeconds:      sc.TickSeconds,
		MaxSeconds:       sc.MaxSeconds,
		SeedHosts:        sc.SeedHosts,
		Seed:             sc.SimSeed,
		Workers:          workers,
		StopWhenInfected: sc.StopWhenInfect,
		Trace:            rec,
		Clock:            clk,
	}
	if a.graph == nil {
		cfg.Pop = a.pop
		cfg.Factory = a.factory
		cfg.Env = a.env
		cfg.Faults = a.plan
	}
	cfg.OnTick = func(sim.TickInfo) bool { return ctx.Err() == nil }
	if a.sensorSet != nil {
		fleet, err := detect.NewThresholdFleet(a.sensors, sc.SensorThreshold)
		if err != nil {
			return nil, fmt.Errorf("xcheck: fleet: %w", err)
		}
		fleet.Trace(rec, clk)
		out.fleet = fleet
		cfg.SensorSet = a.sensorSet
		cfg.OnProbe = func(_, dst ipv4.Addr) { fleet.RecordHit(dst) }
	}
	res, err := sim.RunExact(cfg)
	if err != nil {
		return nil, fmt.Errorf("xcheck: exact driver: %w", err)
	}
	if testMutateResult != nil {
		testMutateResult("exact", workers, res)
	}
	out.res = res
	return out, nil
}

// runFast executes the scenario on the fast driver with the given seed
// (differential replicas run under distinct derived seeds) and worker
// count. The worker count is a throughput knob the driver guarantees is
// output-invariant; the parallel-fast identity oracle re-runs one replica
// with it varied.
func runFast(sc *Scenario, a *artifacts, seed uint64, workers int) (*runOutput, error) {
	rec := trace.NewRecorder(0)
	clk := &obs.SimClock{}
	out := &runOutput{trace: rec}
	cfg := sim.FastConfig{
		Topology:         a.graph, // nil for IPv4 scenarios: the reference world
		ScanRate:         sc.ScanRate,
		TickSeconds:      sc.TickSeconds,
		MaxSeconds:       sc.MaxSeconds,
		SeedHosts:        sc.SeedHosts,
		Seed:             seed,
		Workers:          workers,
		StopWhenInfected: sc.StopWhenInfect,
		Trace:            rec,
		Clock:            clk,
	}
	if a.graph == nil {
		cfg.Pop = a.pop
		cfg.Model = a.model
		cfg.LossRate = sc.LossRate
		cfg.Faults = a.plan
	}
	if a.sensorSet != nil {
		fleet, err := detect.NewThresholdFleet(a.sensors, sc.SensorThreshold)
		if err != nil {
			return nil, fmt.Errorf("xcheck: fleet: %w", err)
		}
		fleet.Trace(rec, clk)
		out.fleet = fleet
		cfg.Sensors = fleet
		cfg.SensorSet = a.sensorSet
	}
	res, err := sim.RunFast(cfg)
	if err != nil {
		return nil, fmt.Errorf("xcheck: fast driver: %w", err)
	}
	if testMutateResult != nil {
		testMutateResult("fast", workers, res)
	}
	out.res = res
	return out, nil
}

// fastReplicaSeed derives the i-th fast replica's seed from the scenario
// seed; replicas must not share randomness with each other or the exact
// run.
func fastReplicaSeed(simSeed uint64, i int) uint64 {
	return rng.Mix64(simSeed ^ (0x66617374 + uint64(i))) // "fast"+i
}

// serializeRun renders every observable of a run into a byte-stable string
// — the byte-identity oracle's comparison format. Floats print as %x so
// equality means bit-for-bit identical, not approximately equal.
func serializeRun(out *runOutput) string {
	var b strings.Builder
	for _, ti := range out.res.Series {
		fmt.Fprintf(&b, "%x %d %d %d %v\n", ti.Time, ti.Infected, ti.NewInfections, ti.Probes, ti.Outcomes)
	}
	for id, it := range out.res.InfectionTime {
		if it >= 0 {
			fmt.Fprintf(&b, "inf %d %x\n", id, it)
		}
	}
	fmt.Fprintf(&b, "cum %v\n", out.res.Outcomes)
	if out.fleet != nil {
		fmt.Fprintf(&b, "fleet total=%d alerted=%d counts=%v\n",
			out.fleet.TotalHits(), out.fleet.NumAlerted(), out.fleet.Counts())
	}
	// The trace rides along in the byte-identity comparison, so worker-count
	// invariance of the flight recorder is enforced on every scenario.
	if out.trace != nil {
		b.WriteString("trace\n")
		if err := out.trace.WriteNDJSON(&b); err != nil {
			fmt.Fprintf(&b, "trace-error %v\n", err)
		}
	}
	return b.String()
}
