// Command hotspotsim runs configurable worm-outbreak simulations over the
// synthetic CodeRedII-style vulnerable population with an optional detector
// fleet, printing the infection and alert curves.
//
// Usage:
//
//	hotspotsim -worm uniform
//	hotspotsim -worm hitlist -hitlist-size 100
//	hotspotsim -worm codered2 -nat 0.15 -sensors 5000 -placement top20
//	hotspotsim -worm codered2 -placement 192sweep -plot
//	hotspotsim -worm codered2 -placement 192sweep -outage 0.3 -burst 0.6
//	hotspotsim -worm codered2 -checkpoint run.ckpt   # rerun replays the cache
//	hotspotsim -worm codered2 -driver exact -pop 2000 -rate 2000 -t 300 -workers 4
//	hotspotsim -topology proxgraph -graph-nodes 50000 -graph-degree 8 -rate 2 -t 300
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/obsflags"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/topo/proxgraph"
	"repro/internal/worm"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the simulation stops at the
	// next tick boundary, no partial summary reaches the -checkpoint file
	// (completed entries are flushed atomically as they finish), and a
	// rerun resumes from whatever the interrupted run completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hotspotsim:", err)
		os.Exit(1)
	}
}

// seriesData is one printed curve, stored so a checkpointed rerun can
// replot it without re-simulating.
type seriesData struct {
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
}

// fleetSummary is the sensor-fleet section of a run summary.
type fleetSummary struct {
	Size           int     `json:"size"`
	Placement      string  `json:"placement"`
	Alerted        int     `json:"alerted"`
	Fraction       float64 `json:"fraction"`
	Quorum         bool    `json:"quorum"`
	Down           int     `json:"down"`
	NumUp          int     `json:"num_up"`
	FractionOfUp   float64 `json:"fraction_of_up"`
	QuorumDegraded bool    `json:"quorum_degraded"`
}

// containSummary is the containment section of a run summary.
type containSummary struct {
	Engaged bool    `json:"engaged"`
	At      float64 `json:"at"`
	Drop    float64 `json:"drop"`
}

// runSummary is everything the CLI prints about one completed simulation.
// It round-trips through the sweep checkpoint, so a rerun with identical
// parameters replays the cached summary byte for byte instead of
// re-simulating.
type runSummary struct {
	Notes         []string        `json:"notes,omitempty"`
	Worm          string          `json:"worm"`
	Pop           int             `json:"pop"`
	Infected      int             `json:"infected"`
	FinalTime     float64         `json:"final_time"`
	Probes        uint64          `json:"probes"`
	Outcomes      string          `json:"outcomes"`
	T50           float64         `json:"t50"`
	HasT50        bool            `json:"has_t50"`
	Fleet         *fleetSummary   `json:"fleet,omitempty"`
	Containment   *containSummary `json:"containment,omitempty"`
	InfectedCurve seriesData      `json:"infected_curve"`
	AlertedCurve  seriesData      `json:"alerted_curve"`
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hotspotsim", flag.ContinueOnError)
	var (
		wormName    = fs.String("worm", "uniform", "uniform|hitlist|codered2")
		driver      = fs.String("driver", "fast", "fast|exact: aggregated rate-mixture driver or probe-exact driver (slower; ground truth for stateful scanners)")
		workers     = fs.Int("workers", 0, "simulation goroutines for either driver (0 = GOMAXPROCS, 1 = serial, negative rejected; every value gives byte-identical results)")
		hitListSize = fs.Int("hitlist-size", 100, "number of /16s in the hit-list")
		popSize     = fs.Int("pop", 134586, "vulnerable population size")
		nat         = fs.Float64("nat", 0, "fraction of hosts NAT'd into 192.168/16")
		scanRate    = fs.Float64("rate", 10, "probes per second per infected host")
		seeds       = fs.Int("seeds", 25, "initially infected hosts")
		maxSeconds  = fs.Float64("t", 2000, "simulated seconds")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		sensors     = fs.Int("sensors", 0, "detector fleet size (0 = none)")
		placement   = fs.String("placement", "random", "random|top20|192sweep")
		threshold   = fs.Uint64("threshold", 5, "alert threshold (probes per sensor)")
		containAt   = fs.Float64("contain-at", 0, "engage containment once this fraction of sensors alert (0 = off)")
		containDrop = fs.Float64("contain-drop", 0.95, "probe drop probability once containment engages")
		outage      = fs.Float64("outage", 0, "withdraw this fraction of the sensor fleet for the whole run")
		burstLoss   = fs.Float64("burst", 0, "Gilbert–Elliott bad-state loss probability (0 = no burst channel)")
		burstGood   = fs.Float64("burst-good", 30, "burst channel mean good-state dwell (seconds)")
		burstBad    = fs.Float64("burst-bad", 10, "burst channel mean bad-state dwell (seconds)")
		faultsFile  = fs.String("faults", "", "JSON fault-plan config file (see internal/faults)")
		checkpoint  = fs.String("checkpoint", "", "cache the completed run in this JSON file; a rerun with identical parameters replays it without re-simulating")
		plot        = fs.Bool("plot", false, "render ASCII chart")

		topology     = fs.String("topology", "ipv4", "ipv4|proxgraph: uniform address-scan world or proximity-graph world (see -graph-* flags)")
		graphNodes   = fs.Int("graph-nodes", 50000, "proxgraph: node count")
		graphDegree  = fs.Int("graph-degree", 8, "proxgraph: mutual-kNN degree bound per node")
		graphRadius  = fs.Float64("graph-radius", 0, "proxgraph: candidate radius in the unit square (0 = package default)")
		graphSensors = fs.Int("graph-sensors", 0, "proxgraph: sensor node count, sampled from the world seed")
		graphSeed    = fs.Uint64("graph-seed", 0, "proxgraph: world seed (0 = reuse -seed)")
	)
	obsFlags := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *driver != "fast" && *driver != "exact" {
		return fmt.Errorf("unknown driver %q (fast|exact)", *driver)
	}
	// The two worlds have disjoint knobs; an explicitly set flag from the
	// wrong world is a configuration error, mirroring the sim package's
	// typed topology-conflict rejections.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *topology {
	case "ipv4":
		for _, name := range []string{"graph-nodes", "graph-degree", "graph-radius", "graph-sensors", "graph-seed"} {
			if explicit[name] {
				return fmt.Errorf("-%s requires -topology proxgraph", name)
			}
		}
	case "proxgraph":
		for _, name := range []string{"worm", "hitlist-size", "pop", "nat", "sensors", "placement",
			"threshold", "contain-at", "contain-drop", "outage", "burst", "burst-good", "burst-bad", "faults"} {
			if explicit[name] {
				return fmt.Errorf("-%s has no defined semantics on -topology proxgraph", name)
			}
		}
	default:
		return fmt.Errorf("unknown topology %q (ipv4|proxgraph)", *topology)
	}
	if *driver == "exact" && *containAt > 0 {
		return fmt.Errorf("-contain-at requires the fast driver (the exact driver has no containment hook)")
	}
	if *outage < 0 || *outage > 1 {
		return fmt.Errorf("-outage %v outside [0,1]", *outage)
	}
	if *burstLoss < 0 || *burstLoss > 1 {
		return fmt.Errorf("-burst %v outside [0,1]", *burstLoss)
	}

	// Resolve the fault config up front: its canonical JSON is part of the
	// checkpoint key, so a changed plan never replays a stale cache entry.
	var fcfg faults.Config
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			return err
		}
		if fcfg, err = faults.ParseConfig(data); err != nil {
			return err
		}
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = *seed + 41
	}
	if *burstLoss > 0 {
		fcfg.Burst = &faults.BurstConfig{
			MeanGood: *burstGood,
			MeanBad:  *burstBad,
			LossGood: 0,
			LossBad:  *burstLoss,
		}
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()

	simulate := func() (runSummary, error) {
		return simulateRun(ctx, simParams{
			wormName:    *wormName,
			driver:      *driver,
			workers:     *workers,
			hitListSize: *hitListSize,
			popSize:     *popSize,
			nat:         *nat,
			scanRate:    *scanRate,
			seeds:       *seeds,
			maxSeconds:  *maxSeconds,
			seed:        *seed,
			sensors:     *sensors,
			placement:   *placement,
			threshold:   *threshold,
			containAt:   *containAt,
			containDrop: *containDrop,
			outage:      *outage,
			faults:      fcfg,

			topology:     *topology,
			graphNodes:   *graphNodes,
			graphDegree:  *graphDegree,
			graphRadius:  *graphRadius,
			graphSensors: *graphSensors,
			graphSeed:    *graphSeed,
		}, sess)
	}

	var summary runSummary
	if *checkpoint != "" {
		cp, err := sweep.OpenCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		fjson, err := json.Marshal(fcfg)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("hotspotsim|worm=%s|driver=%s|workers=%d|hl=%d|pop=%d|nat=%g|rate=%g|seeds=%d|t=%g|seed=%d|sensors=%d|placement=%s|thr=%d|contain=%g/%g|outage=%g|faults=%s",
			*wormName, *driver, *workers, *hitListSize, *popSize, *nat, *scanRate, *seeds, *maxSeconds,
			*seed, *sensors, *placement, *threshold, *containAt, *containDrop, *outage, fjson)
		// Appended only off the default world, so pre-topology checkpoint
		// files keep replaying under their original keys.
		if *topology != "ipv4" {
			key += fmt.Sprintf("|topo=%s|gnodes=%d|gdeg=%d|grad=%g|gsens=%d|gseed=%d",
				*topology, *graphNodes, *graphDegree, *graphRadius, *graphSensors, *graphSeed)
		}
		vals, err := sweep.MapCheckpointed(ctx, []int{0},
			func(int, int) string { return key },
			func(context.Context, int) (runSummary, error) { return simulate() },
			cp, sweep.Options{})
		if err != nil {
			return err
		}
		summary = vals[0]
	} else {
		if summary, err = simulate(); err != nil {
			return err
		}
	}
	printSummary(summary, *plot)
	return sess.Close()
}

// simParams carries the resolved flag values into one simulation.
type simParams struct {
	wormName    string
	driver      string
	workers     int
	hitListSize int
	popSize     int
	nat         float64
	scanRate    float64
	seeds       int
	maxSeconds  float64
	seed        uint64
	sensors     int
	placement   string
	threshold   uint64
	containAt   float64
	containDrop float64
	outage      float64
	faults      faults.Config

	topology     string
	graphNodes   int
	graphDegree  int
	graphRadius  float64
	graphSensors int
	graphSeed    uint64
}

// simulateRun runs one simulation, stopping at the next tick boundary if
// ctx is cancelled; an interrupted run returns ctx's error so its partial
// summary never reaches a checkpoint.
func simulateRun(ctx context.Context, p simParams, sess *obsflags.Session) (runSummary, error) {
	if p.topology == "proxgraph" {
		return simulateGraphRun(ctx, p, sess)
	}
	var summary runSummary
	popCfg := population.DefaultCodeRedII(p.seed)
	if p.popSize != popCfg.Size {
		popCfg = scaledPopulation(p.popSize, p.seed)
	}
	pop, err := population.Synthesize(popCfg)
	if err != nil {
		return summary, err
	}
	if p.nat > 0 {
		if err := pop.AssignNAT(p.nat, 0, p.seed+1); err != nil {
			return summary, err
		}
	}

	// Resolve the propagation algorithm in both drivers' vocabularies: the
	// fast driver consumes an aggregated RateModel, the exact driver a
	// per-host worm.Factory. Both express the same scanning distribution.
	var model sim.RateModel
	var factory worm.Factory
	switch p.wormName {
	case "uniform":
		model = sim.NewUniformModel()
		factory = worm.UniformFactory{}
	case "hitlist":
		prefixes, cover := worm.BuildGreedySlash16HitList(pop.Addrs(false), p.hitListSize)
		summary.Notes = append(summary.Notes, fmt.Sprintf(
			"hit-list: %d /16s covering %.2f%% of the vulnerable population",
			len(prefixes), 100*cover))
		set := ipv4.SetOfPrefixes(prefixes...)
		model = &sim.HitListModel{List: set}
		factory = worm.HitListFactory{ListSet: set}
	case "codered2":
		model = sim.NewCodeRedIIModel()
		factory = worm.CodeRedIIFactory{}
	default:
		return summary, fmt.Errorf("unknown worm %q (uniform|hitlist|codered2)", p.wormName)
	}

	clock := &obs.SimClock{}
	cfg := sim.FastConfig{
		Pop:         pop,
		Model:       model,
		ScanRate:    p.scanRate,
		TickSeconds: 1,
		MaxSeconds:  p.maxSeconds,
		SeedHosts:   p.seeds,
		Seed:        p.seed,
		Workers:     p.workers,
		Metrics:     sess.Registry,
		Clock:       clock,
		Trace:       sess.Trace,
	}
	sess.DescribeRun(p.driver, p.seed, p.workers, fmt.Sprintf("worm=%s pop=%d rate=%g t=%g", p.wormName, pop.Size(), p.scanRate, p.maxSeconds))

	var fleet *detect.ThresholdFleet
	if p.sensors > 0 || p.placement == "192sweep" {
		prefixes, err := buildPlacement(p.placement, p.sensors, p.seed, pop)
		if err != nil {
			return summary, err
		}
		fleet, err = detect.NewThresholdFleet(prefixes, p.threshold)
		if err != nil {
			return summary, err
		}
		if sess.Registry != nil {
			fleet.Instrument(sess.Registry, clock)
		}
		if sess.Trace != nil {
			fleet.Trace(sess.Trace, clock)
		}
		cfg.Sensors = fleet
		cfg.SensorSet = fleet.Union()
	}

	// Fault plan: the -outage knob withdraws a seed-pinned random fraction
	// of the fleet on top of whatever the -faults file and -burst configured.
	fcfg := p.faults
	withdrawn := 0
	if p.outage > 0 {
		if fleet == nil {
			return summary, fmt.Errorf("-outage requires a sensor fleet (-sensors or -placement 192sweep)")
		}
		prefixes := fleet.Prefixes()
		withdrawn = int(p.outage*float64(len(prefixes)) + 0.5)
		for _, idx := range faults.WithdrawalOrder(fcfg.Seed, len(prefixes))[:withdrawn] {
			fcfg.Outages = append(fcfg.Outages, faults.OutageConfig{
				Block: prefixes[idx].String(),
				Start: 0,
				End:   p.maxSeconds + 1,
			})
		}
	}
	var plan *faults.Plan
	if !fcfg.Empty() {
		// The last tick lands exactly on MaxSeconds; pad the horizon so
		// whole-run windows cover it (spans are half-open).
		plan, err = faults.Compile(fcfg, p.maxSeconds+1)
		if err != nil {
			return summary, err
		}
		cfg.Faults = plan
		if fleet != nil {
			fleet.SetDownSet(plan.DownSpace())
		}
		if withdrawn > 0 {
			summary.Notes = append(summary.Notes, fmt.Sprintf(
				"faults: withdrew %d/%d sensor blocks for the whole run", withdrawn, fleet.Size()))
		}
		if b := fcfg.Burst; b != nil {
			summary.Notes = append(summary.Notes, fmt.Sprintf(
				"faults: burst channel %gs good (loss %g) / %gs bad (loss %g), mean loss %.3f",
				b.MeanGood, b.LossGood, b.MeanBad, b.LossBad, b.MeanLoss()))
		}
	}

	var containment *sim.Containment
	if p.containAt > 0 {
		if fleet == nil {
			return summary, fmt.Errorf("-contain-at requires a sensor fleet (-sensors or -placement 192sweep)")
		}
		trigger := p.containAt
		containment = &sim.Containment{
			Trigger: func() bool { return fleet.AlertedFraction() >= trigger },
			Drop:    p.containDrop,
		}
		cfg.Containment = containment
	}

	tickProgress := sess.TickProgress(p.maxSeconds / 10)
	onTick := func(ti sim.TickInfo) bool {
		summary.InfectedCurve.X = append(summary.InfectedCurve.X, ti.Time)
		summary.InfectedCurve.Y = append(summary.InfectedCurve.Y, 100*float64(ti.Infected)/float64(pop.Size()))
		if fleet != nil {
			summary.AlertedCurve.X = append(summary.AlertedCurve.X, ti.Time)
			summary.AlertedCurve.Y = append(summary.AlertedCurve.Y, 100*fleet.AlertedFraction())
		}
		if tickProgress != nil {
			tickProgress(ti.Time, ti.Infected)
		}
		return ctx.Err() == nil
	}
	cfg.OnTick = onTick

	var result *sim.Result
	if p.driver == "exact" {
		ecfg := sim.ExactConfig{
			Pop:         pop,
			Factory:     factory,
			ScanRate:    p.scanRate,
			TickSeconds: cfg.TickSeconds,
			MaxSeconds:  p.maxSeconds,
			SeedHosts:   p.seeds,
			Seed:        p.seed,
			Workers:     p.workers,
			OnTick:      onTick,
			Metrics:     sess.Registry,
			Clock:       clock,
			Faults:      plan,
			Trace:       sess.Trace,
		}
		if fleet != nil {
			ecfg.SensorSet = fleet.Union()
			ecfg.OnProbe = func(_, dst ipv4.Addr) { fleet.RecordHit(dst) }
		}
		result, err = sim.RunExact(ecfg)
	} else {
		result, err = sim.RunFast(cfg)
	}
	if err != nil {
		return summary, err
	}
	if err := ctx.Err(); err != nil {
		return summary, err // interrupted: the truncated result is not a run
	}
	if fleet != nil {
		fleet.ExportMetrics(sess.Registry)
	}
	summary.Worm = model.Name()
	summary.Pop = pop.Size()
	summary.Infected = result.Final.Infected
	summary.FinalTime = result.Final.Time
	summary.Probes = result.Outcomes.Total()
	summary.Outcomes = result.Outcomes.String()
	summary.T50, summary.HasT50 = result.TimeToFraction(0.5)
	if fleet != nil {
		summary.Fleet = &fleetSummary{
			Size:           fleet.Size(),
			Placement:      p.placement,
			Alerted:        fleet.NumAlerted(),
			Fraction:       fleet.AlertedFraction(),
			Quorum:         detect.QuorumReached(fleet, 0.5),
			Down:           withdrawn,
			NumUp:          fleet.NumUp(),
			FractionOfUp:   fleet.AlertedFractionOfUp(),
			QuorumDegraded: detect.QuorumReachedDegraded(fleet, 0.5),
		}
	}
	if containment != nil {
		summary.Containment = &containSummary{
			Engaged: containment.Engaged(),
			At:      containment.EngagedAt,
			Drop:    p.containDrop,
		}
	}
	return summary, nil
}

// simulateGraphRun runs one outbreak over a proximity-graph world. The
// worm here scans neighbor lists instead of drawing addresses, so none
// of the IPv4 machinery — populations, NAT, address sensors, network
// environments — participates; sensor nodes live inside the world.
func simulateGraphRun(ctx context.Context, p simParams, sess *obsflags.Session) (runSummary, error) {
	var summary runSummary
	gseed := p.graphSeed
	if gseed == 0 {
		gseed = p.seed
	}
	world, err := proxgraph.New(proxgraph.Config{
		Nodes:   p.graphNodes,
		Degree:  p.graphDegree,
		Radius:  p.graphRadius,
		Sensors: p.graphSensors,
		Seed:    gseed,
	})
	if err != nil {
		return summary, err
	}
	summary.Notes = append(summary.Notes, fmt.Sprintf(
		"proxgraph: %d nodes, %d edges, radius %.4f, %d sensor nodes",
		world.Nodes(), world.Edges(), world.Radius(), world.SensorCount()))

	clock := &obs.SimClock{}
	sess.DescribeRun(p.driver, p.seed, p.workers, fmt.Sprintf(
		"topology=proxgraph nodes=%d degree=%d rate=%g t=%g",
		world.Nodes(), p.graphDegree, p.scanRate, p.maxSeconds))
	tickProgress := sess.TickProgress(p.maxSeconds / 10)
	onTick := func(ti sim.TickInfo) bool {
		summary.InfectedCurve.X = append(summary.InfectedCurve.X, ti.Time)
		summary.InfectedCurve.Y = append(summary.InfectedCurve.Y, 100*float64(ti.Infected)/float64(world.Nodes()))
		if tickProgress != nil {
			tickProgress(ti.Time, ti.Infected)
		}
		return ctx.Err() == nil
	}

	var result *sim.Result
	if p.driver == "exact" {
		result, err = sim.RunExact(sim.ExactConfig{
			Topology:    world,
			ScanRate:    p.scanRate,
			TickSeconds: 1,
			MaxSeconds:  p.maxSeconds,
			SeedHosts:   p.seeds,
			Seed:        p.seed,
			Workers:     p.workers,
			OnTick:      onTick,
			Metrics:     sess.Registry,
			Clock:       clock,
			Trace:       sess.Trace,
		})
	} else {
		result, err = sim.RunFast(sim.FastConfig{
			Topology:    world,
			ScanRate:    p.scanRate,
			TickSeconds: 1,
			MaxSeconds:  p.maxSeconds,
			SeedHosts:   p.seeds,
			Seed:        p.seed,
			Workers:     p.workers,
			OnTick:      onTick,
			Metrics:     sess.Registry,
			Clock:       clock,
			Trace:       sess.Trace,
		})
	}
	if err != nil {
		return summary, err
	}
	if err := ctx.Err(); err != nil {
		return summary, err // interrupted: the truncated result is not a run
	}
	summary.Worm = "neighbor-" + world.Name()
	summary.Pop = world.Nodes()
	summary.Infected = result.Final.Infected
	summary.FinalTime = result.Final.Time
	summary.Probes = result.Outcomes.Total()
	summary.Outcomes = result.Outcomes.String()
	summary.T50, summary.HasT50 = result.TimeToFraction(0.5)
	return summary, nil
}

func printSummary(s runSummary, plot bool) {
	for _, n := range s.Notes {
		fmt.Println(n)
	}
	fmt.Printf("worm=%s pop=%d infected=%d (%.1f%%) after %.0fs\n",
		s.Worm, s.Pop, s.Infected, 100*float64(s.Infected)/float64(s.Pop), s.FinalTime)
	fmt.Printf("probes=%d outcomes: %s\n", s.Probes, s.Outcomes)
	if s.HasT50 {
		fmt.Printf("time to 50%% infected: %.0fs\n", s.T50)
	}
	if f := s.Fleet; f != nil {
		fmt.Printf("sensors: %d placed (%s), %d alerted (%.1f%%), quorum(50%%)=%v\n",
			f.Size, f.Placement, f.Alerted, 100*f.Fraction, f.Quorum)
		if f.Down > 0 {
			fmt.Printf("degraded fleet: %d/%d in service, %.1f%% of them alerted, degraded quorum(50%%)=%v\n",
				f.NumUp, f.Size, 100*f.FractionOfUp, f.QuorumDegraded)
		}
	}
	if c := s.Containment; c != nil {
		if c.Engaged {
			fmt.Printf("containment: engaged at t=%.0fs (drop %.0f%%)\n", c.At, 100*c.Drop)
		} else {
			fmt.Println("containment: never engaged — the fleet's visibility never reached the trigger")
		}
	}
	if plot {
		infected := textplot.Series{Name: "% infected", X: s.InfectedCurve.X, Y: s.InfectedCurve.Y}
		series := []textplot.Series{downsample(infected, 72)}
		if s.Fleet != nil {
			alerted := textplot.Series{Name: "% sensors alerted", X: s.AlertedCurve.X, Y: s.AlertedCurve.Y}
			series = append(series, downsample(alerted, 72))
		}
		fmt.Println(textplot.Render("outbreak", series, textplot.Options{}))
	}
}

func buildPlacement(name string, n int, seed uint64, pop *population.Population) ([]ipv4.Prefix, error) {
	switch name {
	case "random":
		return detect.RandomSlash24s(n, seed+2, nil)
	case "top20":
		return detect.RandomSlash24sWithin(n, seed+2, pop.TopSlash8s(20), nil)
	case "192sweep":
		return detect.Slash16SweepOfSlash8(192, []uint32{168}, seed+2), nil
	default:
		return nil, fmt.Errorf("unknown placement %q (random|top20|192sweep)", name)
	}
}

// scaledPopulation shrinks the default population shape to the given size.
func scaledPopulation(size int, seed uint64) population.Config {
	cfg := population.DefaultCodeRedII(seed)
	scale := float64(size) / float64(cfg.Size)
	cfg.Size = size
	cfg.Slash16s = int(float64(cfg.Slash16s) * scale)
	if cfg.Slash16s < cfg.Slash8s {
		cfg.Slash8s = cfg.Slash16s
	}
	if cfg.Slash16s > size {
		cfg.Slash16s = size
	}
	for i := range cfg.Anchors {
		k := int(float64(cfg.Anchors[i].K) * scale)
		if k < 1 {
			k = 1
		}
		cfg.Anchors[i].K = k
	}
	cfg.Anchors[len(cfg.Anchors)-1].K = cfg.Slash16s
	return cfg
}

func downsample(s textplot.Series, n int) textplot.Series {
	d := experiments.Downsample(experiments.Series{Name: s.Name, X: s.X, Y: s.Y}, n)
	return textplot.Series{Name: d.Name, X: d.X, Y: d.Y}
}
