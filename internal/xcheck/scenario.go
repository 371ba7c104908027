// Package xcheck is the simulator's cross-checking harness: a seeded
// scenario generator, a suite of oracles that audit every run from three
// independent directions, and a shrinker that reduces violating scenarios
// to minimal reproducers.
//
// One uint64 seed deterministically expands into a full scenario — worm
// family, population shape and clustering, NAT placement, environment
// loss, sensor fleet, fault plan, timing, and worker count — so a batch of
// seeds sweeps the whole feature matrix without any hand-written case
// list. Each scenario is then audited by three oracle families (see
// DESIGN.md §10):
//
//   - Analytic: scenarios that satisfy the closed-form SI model's
//     assumptions must track it, and epidemic.FitBeta must recover the
//     configured β from the simulated curve.
//   - Differential: for memoryless scanners the exact and fast drivers are
//     independent implementations of the same process; their epidemic
//     trajectories and sensor-hit rates must agree within sampling
//     tolerance. The exact driver must also be byte-identical across
//     worker counts and across a JSON round-trip of the scenario, and the
//     fast driver across its own worker counts.
//   - Invariant: properties every run must satisfy unconditionally —
//     probe-outcome conservation, monotone cumulative infections,
//     infection-time/series consistency, and sensor-fleet accounting
//     bounded by the sensor-hit outcome count.
//
// Violations carry the scenario that produced them; the shrinker bisects
// it down (fewer ticks, smaller population, fewer features) and the result
// is written as a Go fuzz corpus seed under testdata/, turning every
// escaped bug into a permanent regression test.
package xcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/rng"
)

// Worm families a scenario can draw. Uniform, hit-list, and CodeRedII have
// fast-driver rate models and are differential-eligible; Blaster, Slammer,
// and Witty have stateful probe sequences and run on the exact driver only.
const (
	WormUniform   = "uniform"
	WormHitList   = "hitlist"
	WormCodeRedII = "codered2"
	WormBlaster   = "blaster"
	WormSlammer   = "slammer"
	WormWitty     = "witty"
)

// Topologies a scenario can run on. The empty string and TopoIPv4 both
// mean the reference IPv4 world; TopoProxGraph runs both drivers over a
// seeded proximity graph (mutual-kNN geometric neighbor world) where
// the IPv4 dimensions — population shape, NAT, environment, darknet
// sensors, faults — do not exist and must be zero.
const (
	TopoIPv4      = "ipv4"
	TopoProxGraph = "proxgraph"
)

// OutageWindow schedules a scheduled outage for one sensor block. The
// block itself is resolved at artifact-build time (sensor placement is
// derived from the scenario, not stored in it), so the window names the
// sensor by index.
type OutageWindow struct {
	// SensorIndex picks the sensor prefix (mod the fleet size).
	SensorIndex int `json:"sensor_index"`
	// Start and End bound the outage in simulated seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Scenario is one fully specified cross-check case. Every field is
// JSON-serializable so violating scenarios can be reported, shrunk, and
// stored as fuzz corpus seeds. The zero value is invalid; scenarios come
// from Generate or from ParseScenario followed by Validate.
type Scenario struct {
	// ID is the generator seed the scenario was expanded from (0 for
	// hand-built or shrunk scenarios).
	ID uint64 `json:"id"`

	// Worm is the scanning strategy (one of the Worm* constants);
	// SlammerVariant selects the LCG variant for WormSlammer.
	Worm           string `json:"worm"`
	SlammerVariant int    `json:"slammer_variant,omitempty"`

	// Population shape: PopSize hosts clustered into Slash16s /16s across
	// Slash8s /8s, synthesized with PopSeed. Include192 forces 192/8 into
	// the populated /8s (required by CodeRedII's NAT-leak path).
	PopSize    int    `json:"pop_size"`
	Slash8s    int    `json:"slash8s"`
	Slash16s   int    `json:"slash16s"`
	Include192 bool   `json:"include_192,omitempty"`
	PopSeed    uint64 `json:"pop_seed"`

	// NAT placement: NATFraction of hosts are moved behind NAT sites of
	// NATHostsPerSite members each (0 fraction = no NAT).
	NATFraction     float64 `json:"nat_fraction,omitempty"`
	NATHostsPerSite int     `json:"nat_hosts_per_site,omitempty"`
	NATSeed         uint64  `json:"nat_seed,omitempty"`

	// HitListSlash16s is the greedy hit-list size (top-k /16s) for
	// WormHitList; ignored otherwise.
	HitListSlash16s int `json:"hit_list_slash16s,omitempty"`

	// Environment: uniform loss plus an optional egress filter over the
	// first populated /8 (exact driver only — scenarios with EgressDrop>0
	// are never differential).
	LossRate   float64 `json:"loss_rate,omitempty"`
	EgressDrop float64 `json:"egress_drop,omitempty"`

	// Timing and seeding of the run itself.
	ScanRate    float64 `json:"scan_rate"`
	TickSeconds float64 `json:"tick_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
	SeedHosts   int     `json:"seed_hosts"`
	SimSeed     uint64  `json:"sim_seed"`

	// Workers is the exact driver's worker count for the second run of the
	// byte-identity oracle (the first always runs Workers=1).
	Workers int `json:"workers"`

	// FastWorkers is the fast driver's worker count for the parallel-fast
	// identity oracle (the reference replica always runs Workers=1). Zero
	// means "pick a parallel count" — older corpus seeds predate the field.
	FastWorkers int `json:"fast_workers,omitempty"`

	// Sensor fleet: Sensors random /24 darknet blocks (0 = no fleet)
	// placed with SensorSeed, alerting at SensorThreshold hits.
	Sensors         int    `json:"sensors,omitempty"`
	SensorThreshold uint64 `json:"sensor_threshold,omitempty"`
	SensorSeed      uint64 `json:"sensor_seed,omitempty"`

	// Faults: burst loss and degraded reporting are stored directly;
	// sensor outages are scheduled by index and resolved against the
	// placed fleet at build time.
	Faults         *faults.Config `json:"faults,omitempty"`
	SensorOutages  []OutageWindow `json:"sensor_outages,omitempty"`
	StopWhenInfect int            `json:"stop_when_infected,omitempty"`

	// Topology selects the world (one of the Topo* constants; empty
	// means TopoIPv4). Graph scenarios use the Graph* dimensions below
	// instead of the population/NAT/environment/sensor fields above,
	// and Worm must be empty — graph worms scan neighbor lists, not
	// address space.
	Topology string `json:"topology,omitempty"`
	// Proximity-graph shape (TopoProxGraph only): GraphNodes routers,
	// mutual-kNN degree bound GraphDegree, candidate radius GraphRadius
	// (0 = the package default), GraphSensors sensor nodes, all built
	// from GraphSeed.
	GraphNodes   int     `json:"graph_nodes,omitempty"`
	GraphDegree  int     `json:"graph_degree,omitempty"`
	GraphRadius  float64 `json:"graph_radius,omitempty"`
	GraphSensors int     `json:"graph_sensors,omitempty"`
	GraphSeed    uint64  `json:"graph_seed,omitempty"`
}

// Scenario-space caps. They bound the work any scenario — generated,
// shrunk, or fuzzer-supplied — can request, so CheckScenario is safe to
// call on hostile inputs.
const (
	maxPopSize     = 2000
	maxScenarioPPT = 500   // probes per host per tick
	maxTicksPerRun = 200   // MaxSeconds / TickSeconds
	maxSensors     = 64    // /24 blocks
	maxWorkers     = 16    // exact-driver goroutines
	maxWorkProduct = 4.5e7 // PopSize · ppt · ticks, summed probe bound
)

// Validate rejects scenarios outside the bounded feature space. It runs
// before any artifact construction, so a hostile JSON scenario costs
// nothing but this check.
func (s *Scenario) Validate() error {
	switch s.Topology {
	//lint:ignore float-eq zero is the unset GraphRadius; any nonzero radius is a graph dimension on an IPv4 scenario
	case "", TopoIPv4:
		if s.GraphNodes != 0 || s.GraphDegree != 0 || s.GraphRadius != 0 ||
			s.GraphSensors != 0 || s.GraphSeed != 0 {
			return fmt.Errorf("xcheck: graph dimensions set on topology %q", TopoIPv4)
		}
	case TopoProxGraph:
		return s.validateGraph()
	default:
		return fmt.Errorf("xcheck: unknown topology %q", s.Topology)
	}
	switch s.Worm {
	case WormUniform, WormHitList, WormCodeRedII, WormBlaster, WormSlammer, WormWitty:
	default:
		return fmt.Errorf("xcheck: unknown worm %q", s.Worm)
	}
	if s.SlammerVariant < 0 || s.SlammerVariant > 2 {
		return fmt.Errorf("xcheck: slammer variant %d out of [0,2]", s.SlammerVariant)
	}
	if s.PopSize < 20 || s.PopSize > maxPopSize {
		return fmt.Errorf("xcheck: population %d outside [20,%d]", s.PopSize, maxPopSize)
	}
	if s.Slash8s < 1 || s.Slash8s > 16 || s.Slash16s < s.Slash8s || s.Slash16s > 64 {
		return fmt.Errorf("xcheck: population shape %d/8s %d/16s out of range", s.Slash8s, s.Slash16s)
	}
	if !isProb(s.NATFraction) || s.NATFraction > 0.8 {
		return fmt.Errorf("xcheck: NAT fraction %v outside [0,0.8]", s.NATFraction)
	}
	if s.NATFraction > 0 && (s.NATHostsPerSite < 2 || s.NATHostsPerSite > 64) {
		return fmt.Errorf("xcheck: NAT hosts per site %d outside [2,64]", s.NATHostsPerSite)
	}
	if s.Worm == WormHitList && (s.HitListSlash16s < 1 || s.HitListSlash16s > s.Slash16s) {
		return fmt.Errorf("xcheck: hit-list size %d outside [1,%d]", s.HitListSlash16s, s.Slash16s)
	}
	if !isProb(s.LossRate) || s.LossRate >= 1 {
		return fmt.Errorf("xcheck: loss rate %v outside [0,1)", s.LossRate)
	}
	if !isProb(s.EgressDrop) {
		return fmt.Errorf("xcheck: egress drop %v outside [0,1]", s.EgressDrop)
	}
	for _, v := range [...]float64{s.ScanRate, s.TickSeconds, s.MaxSeconds} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("xcheck: rate/timing %v must be positive and finite", v)
		}
	}
	ppt := s.ScanRate * s.TickSeconds
	if ppt < 1 || ppt > maxScenarioPPT {
		return fmt.Errorf("xcheck: %v probes per host per tick outside [1,%d]", ppt, maxScenarioPPT)
	}
	ticks := s.MaxSeconds / s.TickSeconds
	if ticks < 1 || ticks > maxTicksPerRun {
		return fmt.Errorf("xcheck: %v ticks outside [1,%d]", ticks, maxTicksPerRun)
	}
	if work := float64(s.PopSize) * ppt * ticks; work > maxWorkProduct {
		return fmt.Errorf("xcheck: work product %.3g exceeds %.3g", work, maxWorkProduct)
	}
	if s.SeedHosts < 1 || s.SeedHosts > s.PopSize {
		return fmt.Errorf("xcheck: seed hosts %d outside [1,%d]", s.SeedHosts, s.PopSize)
	}
	if s.Workers < 1 || s.Workers > maxWorkers {
		return fmt.Errorf("xcheck: workers %d outside [1,%d]", s.Workers, maxWorkers)
	}
	if s.FastWorkers < 0 || s.FastWorkers > maxWorkers {
		return fmt.Errorf("xcheck: fast workers %d outside [0,%d]", s.FastWorkers, maxWorkers)
	}
	if s.Sensors < 0 || s.Sensors > maxSensors {
		return fmt.Errorf("xcheck: %d sensors outside [0,%d]", s.Sensors, maxSensors)
	}
	if s.Sensors > 0 && (s.SensorThreshold < 1 || s.SensorThreshold > 1e6) {
		return fmt.Errorf("xcheck: sensor threshold %d outside [1,1e6]", s.SensorThreshold)
	}
	if s.StopWhenInfect < 0 || s.StopWhenInfect > s.PopSize {
		return fmt.Errorf("xcheck: stop-when-infected %d outside [0,%d]", s.StopWhenInfect, s.PopSize)
	}
	if len(s.SensorOutages) > maxSensors {
		return fmt.Errorf("xcheck: %d sensor outages exceed %d", len(s.SensorOutages), maxSensors)
	}
	for i, w := range s.SensorOutages {
		if s.Sensors == 0 {
			return fmt.Errorf("xcheck: sensor outage %d without sensors", i)
		}
		if w.SensorIndex < 0 || !validWindow(w.Start, w.End) {
			return fmt.Errorf("xcheck: sensor outage %d window [%v,%v) invalid", i, w.Start, w.End)
		}
	}
	if s.Faults != nil {
		if len(s.Faults.Outages) > 0 {
			return fmt.Errorf("xcheck: raw outages must be scheduled via sensor_outages")
		}
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("xcheck: %w", err)
		}
	}
	return nil
}

// validateGraph bounds the proximity-graph scenario space. The IPv4
// dimensions must be zero — the sim drivers reject them with typed
// conflict errors, and the harness enforces the same boundary before
// any world construction.
func (s *Scenario) validateGraph() error {
	if s.Worm != "" || s.SlammerVariant != 0 {
		return fmt.Errorf("xcheck: worm %q set on a graph topology (graph worms scan neighbor lists)", s.Worm)
	}
	if s.PopSize != 0 || s.Slash8s != 0 || s.Slash16s != 0 || s.Include192 || s.PopSeed != 0 {
		return fmt.Errorf("xcheck: IPv4 population dimensions set on topology %q", s.Topology)
	}
	//lint:ignore float-eq zero is the unset NATFraction; any nonzero fraction is a NAT dimension on a graph scenario
	if s.NATFraction != 0 || s.NATHostsPerSite != 0 || s.NATSeed != 0 {
		return fmt.Errorf("xcheck: NAT dimensions set on topology %q", s.Topology)
	}
	//lint:ignore float-eq zero is the unset LossRate and EgressDrop; any nonzero rate is an environment dimension on a graph scenario
	if s.HitListSlash16s != 0 || s.LossRate != 0 || s.EgressDrop != 0 {
		return fmt.Errorf("xcheck: environment dimensions set on topology %q", s.Topology)
	}
	if s.Sensors != 0 || s.SensorThreshold != 0 || s.SensorSeed != 0 || len(s.SensorOutages) != 0 {
		return fmt.Errorf("xcheck: darknet sensor dimensions set on topology %q (use graph_sensors)", s.Topology)
	}
	if s.Faults != nil {
		return fmt.Errorf("xcheck: fault plans set on topology %q", s.Topology)
	}
	if s.GraphNodes < 20 || s.GraphNodes > maxPopSize {
		return fmt.Errorf("xcheck: graph nodes %d outside [20,%d]", s.GraphNodes, maxPopSize)
	}
	if s.GraphDegree < 1 || s.GraphDegree > 16 {
		return fmt.Errorf("xcheck: graph degree %d outside [1,16]", s.GraphDegree)
	}
	if math.IsNaN(s.GraphRadius) || s.GraphRadius < 0 || s.GraphRadius > 1.5 {
		return fmt.Errorf("xcheck: graph radius %v outside [0,1.5]", s.GraphRadius)
	}
	if s.GraphSensors < 0 || s.GraphSensors > s.GraphNodes/2 {
		return fmt.Errorf("xcheck: graph sensors %d outside [0,%d]", s.GraphSensors, s.GraphNodes/2)
	}
	for _, v := range [...]float64{s.ScanRate, s.TickSeconds, s.MaxSeconds} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("xcheck: rate/timing %v must be positive and finite", v)
		}
	}
	ppt := s.ScanRate * s.TickSeconds
	if ppt < 1 || ppt > maxScenarioPPT {
		return fmt.Errorf("xcheck: %v probes per host per tick outside [1,%d]", ppt, maxScenarioPPT)
	}
	ticks := s.MaxSeconds / s.TickSeconds
	if ticks < 1 || ticks > maxTicksPerRun {
		return fmt.Errorf("xcheck: %v ticks outside [1,%d]", ticks, maxTicksPerRun)
	}
	if work := float64(s.GraphNodes) * ppt * ticks; work > maxWorkProduct {
		return fmt.Errorf("xcheck: work product %.3g exceeds %.3g", work, maxWorkProduct)
	}
	if sus := s.GraphNodes - s.GraphSensors; s.SeedHosts < 1 || s.SeedHosts > sus {
		return fmt.Errorf("xcheck: seed hosts %d outside [1,%d]", s.SeedHosts, sus)
	}
	if s.Workers < 1 || s.Workers > maxWorkers {
		return fmt.Errorf("xcheck: workers %d outside [1,%d]", s.Workers, maxWorkers)
	}
	if s.FastWorkers < 0 || s.FastWorkers > maxWorkers {
		return fmt.Errorf("xcheck: fast workers %d outside [0,%d]", s.FastWorkers, maxWorkers)
	}
	if s.StopWhenInfect < 0 || s.StopWhenInfect > s.GraphNodes {
		return fmt.Errorf("xcheck: stop-when-infected %d outside [0,%d]", s.StopWhenInfect, s.GraphNodes)
	}
	return nil
}

func isProb(p float64) bool { return !math.IsNaN(p) && p >= 0 && p <= 1 }

func validWindow(start, end float64) bool {
	return !math.IsNaN(start) && !math.IsInf(start, 0) && !math.IsNaN(end) && !math.IsInf(end, 0) &&
		start >= 0 && end > start
}

// Differential reports whether the scenario is eligible for the
// exact-vs-fast differential oracle: the worm must have a fast-driver rate
// model, and the environment must be expressible in FastConfig (uniform
// loss only — egress filters are exact-only).
func (s *Scenario) Differential() bool {
	switch s.Worm {
	case WormUniform, WormHitList, WormCodeRedII:
		//lint:ignore float-eq a zero EgressDrop means no egress filter, which FastConfig can express; any nonzero drop is exact-only
		return s.EgressDrop == 0
	}
	return false
}

// Analytic reports whether the scenario satisfies the closed-form SI
// model's assumptions: a hit-list scanner (Ω = list size) over a flat
// population with a transparent network and no faults. Coverage of the
// hit-list is checked at build time (partial lists cap the epidemic below
// N, breaking the logistic form).
func (s *Scenario) Analytic() bool {
	//lint:ignore float-eq the analytic model holds only with NAT, loss and egress filtering exactly off, which zero encodes
	return s.Worm == WormHitList &&
		s.NATFraction == 0 && s.LossRate == 0 && s.EgressDrop == 0 &&
		s.Faults == nil && len(s.SensorOutages) == 0 && s.StopWhenInfect == 0
}

// xcheckStream isolates scenario expansion from every other consumer of a
// seed: Generate(id) and a simulation seeded with id never share a stream.
const xcheckStream = 0x78636865636b31 // "xcheck1"

// Generate expands one seed into a full scenario. The mapping is pure:
// the same id always yields the same scenario, independent of platform,
// batch position, or prior calls.
func Generate(id uint64) Scenario {
	r := rng.NewXoshiroStream(id, xcheckStream, 0)
	sc := Scenario{
		ID:          id,
		TickSeconds: 1,
		PopSeed:     r.Uint64(),
		SimSeed:     r.Uint64(),
		Workers:     1 + int(r.Uint64n(8)),
		SeedHosts:   3 + int(r.Uint64n(8)),
	}
	// Worm family: hit-list weighted heavily — it is the only family whose
	// epidemics mature inside the bounded budget, so it carries the
	// analytic and growth-phase differential checks.
	switch r.Uint64n(10) {
	case 0, 1, 2, 3:
		sc.Worm = WormHitList
	case 4:
		sc.Worm = WormUniform
	case 5, 6:
		sc.Worm = WormCodeRedII
	case 7:
		sc.Worm = WormBlaster
	case 8:
		sc.Worm = WormSlammer
		sc.SlammerVariant = int(r.Uint64n(3))
	default:
		sc.Worm = WormWitty
	}

	// Population: small and tight for hit-list scenarios (Ω = k·2^16 must
	// stay small enough for growth under the probe budget), looser for the
	// rest.
	if sc.Worm == WormHitList {
		sc.PopSize = 150 + int(r.Uint64n(250))
		sc.Slash8s = 1 + int(r.Uint64n(3))
		sc.Slash16s = sc.Slash8s + int(r.Uint64n(uint64(5-sc.Slash8s)))
		sc.HitListSlash16s = sc.Slash16s // full coverage: analytic-eligible
		if r.Uint64n(4) == 0 && sc.Slash16s > 1 {
			sc.HitListSlash16s = 1 + int(r.Uint64n(uint64(sc.Slash16s)))
		}
	} else {
		sc.PopSize = 100 + int(r.Uint64n(400))
		sc.Slash8s = 3 + int(r.Uint64n(5))
		sc.Slash16s = sc.Slash8s + int(r.Uint64n(24))
	}
	sc.Include192 = sc.Worm == WormCodeRedII

	// NAT clustering (40% of scenarios).
	if r.Uint64n(10) < 4 {
		sc.NATFraction = 0.1 + 0.3*r.Float64()
		sc.NATHostsPerSite = 2 + int(r.Uint64n(5))
		sc.NATSeed = r.Uint64()
	}

	// Environment: uniform loss half the time; an egress filter only for
	// exact-only worms (a filtered scenario cannot be differential).
	if r.Uint64n(2) == 0 {
		sc.LossRate = 0.3 * r.Float64()
	}
	switch sc.Worm {
	case WormBlaster, WormSlammer, WormWitty:
		if r.Uint64n(10) < 3 {
			sc.EgressDrop = r.Float64()
		}
	}

	// Timing: pick a tick, a horizon, and a scan rate that keeps hit-list
	// epidemics in their growth phase within the horizon. For a hit-list
	// worm β = rate·N/Ω; aim β·T ∈ [4, 8] so the sigmoid completes.
	sc.TickSeconds = []float64{0.5, 1, 2}[r.Uint64n(3)]
	ticks := 30 + int(r.Uint64n(50))
	sc.MaxSeconds = float64(ticks) * sc.TickSeconds
	switch sc.Worm {
	case WormHitList:
		omega := float64(sc.HitListSlash16s) * 65536
		beta := 0.1 + 0.15*r.Float64() // per second: β = rate·N/Ω
		sc.ScanRate = clampRate(beta*omega/float64(sc.PopSize), sc.TickSeconds)
	case WormCodeRedII:
		sc.ScanRate = clampRate(100+400*r.Float64(), sc.TickSeconds)
	default:
		sc.ScanRate = clampRate(50+950*r.Float64(), sc.TickSeconds)
	}
	// Enforce the work-product cap by shedding horizon first, then rate.
	for float64(sc.PopSize)*sc.ScanRate*sc.TickSeconds*float64(ticks) > maxWorkProduct {
		if ticks > 20 {
			ticks /= 2
			sc.MaxSeconds = float64(ticks) * sc.TickSeconds
			continue
		}
		sc.ScanRate = sc.ScanRate / 2
		if sc.ScanRate*sc.TickSeconds < 1 {
			sc.ScanRate = 1 / sc.TickSeconds
			break
		}
	}

	// Sensor fleet (60%), with optional scheduled outages and faults.
	if r.Uint64n(10) < 6 {
		sc.Sensors = 4 + int(r.Uint64n(29))
		sc.SensorThreshold = 1 + r.Uint64n(4)
		sc.SensorSeed = r.Uint64()
		if r.Uint64n(10) < 3 {
			n := 1 + int(r.Uint64n(3))
			for i := 0; i < n; i++ {
				start := r.Float64() * sc.MaxSeconds * 0.8
				sc.SensorOutages = append(sc.SensorOutages, OutageWindow{
					SensorIndex: int(r.Uint64n(uint64(sc.Sensors))),
					Start:       start,
					End:         start + (0.1+0.9*r.Float64())*(sc.MaxSeconds+sc.TickSeconds-start),
				})
			}
		}
	}
	if r.Uint64n(10) < 4 {
		fc := &faults.Config{Seed: r.Uint64()}
		if r.Uint64n(2) == 0 {
			fc.Burst = &faults.BurstConfig{
				MeanGood: 5 + 15*r.Float64(),
				MeanBad:  1 + 4*r.Float64(),
				LossGood: 0.05 * r.Float64(),
				LossBad:  0.3 + 0.6*r.Float64(),
			}
		}
		if sc.Sensors > 0 && r.Uint64n(5) < 2 {
			fc.Reporting = &faults.ReportingConfig{
				Delay:   5 * r.Float64() * sc.TickSeconds,
				DupProb: 0.5 * r.Float64(),
			}
		}
		if fc.Burst != nil || fc.Reporting != nil {
			sc.Faults = fc
		}
	}
	// Drawn last so the field's introduction left every earlier field of
	// every existing seed's expansion unchanged.
	sc.FastWorkers = 2 + int(r.Uint64n(7))
	// Topology gate, drawn after everything else for the same reason:
	// seeds that stay IPv4 (7 in 8) expand exactly as they did before
	// the dimension existed. Graph seeds rebuild the scenario over the
	// proximity-graph dimensions, discarding the IPv4 draws above.
	if r.Uint64n(8) == 0 {
		sc = graphScenario(sc, r)
	}
	return sc
}

// graphScenario re-expands a drawn scenario as a proximity-graph world,
// keeping the identity, sim seed, timing grid, and worker counts from
// the base draw and replacing the IPv4 dimensions with graph shape.
func graphScenario(base Scenario, r *rng.Xoshiro) Scenario {
	sc := Scenario{
		ID:          base.ID,
		Topology:    TopoProxGraph,
		SimSeed:     base.SimSeed,
		Workers:     base.Workers,
		FastWorkers: base.FastWorkers,
		TickSeconds: base.TickSeconds,
	}
	sc.GraphNodes = 100 + int(r.Uint64n(600))
	sc.GraphDegree = 3 + int(r.Uint64n(8))
	sc.GraphSeed = r.Uint64()
	// Mostly the package-default radius; sometimes an explicit generous
	// one, which stresses the mutual-kNN pruning instead of the radius
	// cutoff.
	if r.Uint64n(4) == 0 {
		sc.GraphRadius = 0.05 + 0.3*r.Float64()
	}
	if r.Uint64n(10) < 6 {
		sc.GraphSensors = 1 + int(r.Uint64n(uint64(sc.GraphNodes/10)))
	}
	sc.SeedHosts = 2 + int(r.Uint64n(6))
	ticks := 30 + int(r.Uint64n(50))
	sc.MaxSeconds = float64(ticks) * sc.TickSeconds
	// Neighbor scanning saturates local neighborhoods quickly, so modest
	// per-host rates keep the epidemic curve informative over the
	// horizon.
	sc.ScanRate = clampRate(0.5+4*r.Float64(), sc.TickSeconds)
	if r.Uint64n(6) == 0 {
		sc.StopWhenInfect = sc.SeedHosts + int(r.Uint64n(uint64(sc.GraphNodes/4)))
	}
	return sc
}

// clampRate bounds a scan rate to the scenario probe-per-tick window.
func clampRate(rate, tick float64) float64 {
	if rate*tick > maxScenarioPPT {
		return maxScenarioPPT / tick
	}
	if rate*tick < 1 {
		return 1 / tick
	}
	return rate
}

// ParseScenario decodes a JSON scenario, rejecting unknown fields so
// corpus seeds cannot silently rot when the schema evolves.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("xcheck: %w", err)
	}
	return sc, nil
}

// JSON renders the scenario compactly (the corpus-seed and report format).
func (s *Scenario) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	return b
}
