// Package sim is the epidemic simulation engine: a discrete-time SI
// (susceptible → infected) model of worm outbreaks over the synthetic
// populations, propagation algorithms, and network environments of the
// other packages. It reproduces the paper's Section 5 simulation platform
// (10 probes/s per infected host, 25 random seed hosts, CodeRedII-style
// vulnerable population).
//
// Two drivers are provided:
//
//   - Exact (RunExact): every probe of every infected host is drawn from
//     the host's real TargetGenerator. This is the ground truth and the only
//     correct driver for scanners whose probe sequences are not memoryless
//     (Slammer's LCG cycles, Blaster's sequential sweep).
//
//   - Fast (RunFast): for memoryless scanners (uniform, hit-list,
//     CodeRedII's mask preference) each infected host's per-tick probes are
//     a Poisson process split over a small mixture of address ranges, so
//     infection and sensor-hit counts can be drawn in aggregate —
//     distributionally equivalent to the exact driver but thousands of
//     times faster. Fig 5's parameter sweeps run on this driver; tests
//     cross-validate the two drivers on small configurations.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/worm"
)

// HitRecorder receives probes that land on monitored (darknet) address
// space. package detect's fleets implement it.
type HitRecorder interface {
	// RecordHit is called once per monitored probe with its destination.
	RecordHit(dst ipv4.Addr)
}

// TickInfo summarizes one simulation tick.
type TickInfo struct {
	// Time is the simulated time in seconds at the end of the tick.
	Time float64
	// Infected is the total infected population.
	Infected int
	// NewInfections is the number of hosts infected during this tick.
	NewInfections int
	// Probes is the number of probes emitted during this tick.
	Probes uint64
	// Outcomes tallies this tick's probes by fate; the categories sum to
	// Probes (exactly in the exact driver; the fast driver closes the sum
	// with an expectation-based delivered/filtered split).
	Outcomes OutcomeCounts
}

// Result is a completed simulation run.
type Result struct {
	// Series holds one entry per tick.
	Series []TickInfo
	// Final is the last tick's info.
	Final TickInfo
	// InfectionTime[i] is the simulated second host i became infected, or
	// a negative value if it never was.
	InfectionTime []float64
	// Outcomes is the run-cumulative probe-outcome tally (the sum of every
	// tick's TickInfo.Outcomes).
	Outcomes OutcomeCounts
}

// FractionInfected returns the final infected fraction of the population.
func (r *Result) FractionInfected() float64 {
	if len(r.InfectionTime) == 0 {
		return 0
	}
	return float64(r.Final.Infected) / float64(len(r.InfectionTime))
}

// TimeToFraction returns the first simulated time at which the infected
// fraction reached f, and whether it ever did.
func (r *Result) TimeToFraction(f float64) (float64, bool) {
	target := int(f * float64(len(r.InfectionTime)))
	if target < 1 {
		// Tiny fractions round to zero hosts, which every tick satisfies
		// vacuously — even one with no infections at all. Reaching a
		// positive fraction means at least one host is infected.
		target = 1
	}
	for _, ti := range r.Series {
		if ti.Infected >= target {
			return ti.Time, true
		}
	}
	return 0, false
}

// ExactConfig configures the probe-exact driver.
type ExactConfig struct {
	// Topology selects the world the epidemic spreads over. nil means the
	// reference IPv4 world — the paper's flat address space, driven by
	// Pop/Factory/Env below. A graph world runs the neighbor-graph driver
	// instead, in which case the IPv4-only fields (Pop, Factory, Env,
	// SensorSet, OnProbe, Faults) must be nil — they have no graph
	// semantics and are rejected with a *TopologyConflictError rather
	// than silently ignored.
	Topology topo.Graph
	// Pop is the vulnerable population.
	Pop *population.Population
	// Factory builds each infected host's target generator.
	Factory worm.Factory
	// Env applies environmental factors; nil means a transparent network.
	Env *netenv.Environment
	// ScanRate is probes per second per infected host.
	ScanRate float64
	// TickSeconds is the simulation step; probes per host per tick is
	// ScanRate·TickSeconds (must be ≥ 1 when rounded for the exact driver).
	TickSeconds float64
	// MaxSeconds stops the simulation.
	MaxSeconds float64
	// SeedHosts is the number of initially infected hosts, drawn uniformly.
	SeedHosts int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the number of goroutines classifying probes during phase
	// 1 of each tick; the merge phase (infections, sensor callbacks,
	// metrics) is always serial. 0 uses runtime.GOMAXPROCS(0); 1 runs
	// classification inline with no goroutines; negative values are
	// rejected by validation. Every value of Workers
	// produces byte-identical results for the same seed: each agent draws
	// probes from its own generator plus a per-(agent,tick) environment
	// RNG stream, and per-worker buffers merge in agent order (see
	// DESIGN.md §9 for the determinism contract).
	Workers int
	// OnProbe, when non-nil, receives every probe that reaches the public
	// Internet (sensor fleets hang here). Callbacks fire during the serial
	// merge phase, so implementations need no locking.
	OnProbe func(src, dst ipv4.Addr)
	// OnTick, when non-nil, is called after every tick; returning false
	// stops the run.
	OnTick func(TickInfo) bool
	// StopWhenInfected stops once this many hosts are infected (0 = never).
	StopWhenInfected int
	// SensorSet, when non-nil, is the monitored (darknet) address space;
	// delivered probes landing in it are classified OutcomeSensorHit.
	SensorSet *ipv4.Set
	// Metrics, when non-nil, receives per-tick probe-outcome counters and
	// run gauges (see DESIGN.md for the metric-name contract). Attaching a
	// registry never perturbs the run: telemetry draws no randomness.
	Metrics *obs.Registry
	// MetricLabels are extra label pairs ("k1", "v1", …) appended to every
	// series this run registers. Runs sharing one registry — concurrent
	// sweep points in particular — must set distinct labels here, or their
	// counters aggregate indistinguishably and gauges become
	// last-writer-wins.
	MetricLabels []string
	// Clock, when non-nil, is set to the tick's simulated time at the
	// start of each tick, so observers (sensor fleets, tracers) timestamp
	// events in simulated seconds.
	Clock *obs.SimClock
	// Faults, when non-nil, injects the plan's sensor outages, bursty
	// loss, and degraded reporting into the run. The plan's horizon must
	// cover MaxSeconds. Probes dropped by the burst channel are
	// OutcomeBurstLost; probes landing on withdrawn monitored space are
	// OutcomeSensorDown and never reach OnProbe.
	Faults *faults.Plan
	// Trace, when non-nil, receives the run's flight-recorder events:
	// phase boundaries, seed and infection edges (with infector→victim
	// provenance), per-tick probe summaries, and fault transitions. Like
	// Metrics, attaching a recorder never perturbs the run — events are
	// appended only from the serial merge phase, in agent order, so trace
	// bytes are identical for every worker count (DESIGN.md §12).
	Trace *trace.Recorder
}

func (c *ExactConfig) validate() error {
	if c.Pop == nil || c.Pop.Size() == 0 {
		return errors.New("sim: empty population")
	}
	if c.Factory == nil {
		return errors.New("sim: nil worm factory")
	}
	if err := c.params().check(true); err != nil {
		return err
	}
	if c.SeedHosts <= 0 || c.SeedHosts > c.Pop.Size() {
		return fmt.Errorf("sim: seed hosts %d out of range", c.SeedHosts)
	}
	return nil
}

// exactAgent is one infected, probing host. The generator and the
// compiled source view are built once at infection time; during phase 1
// each agent is owned by exactly one worker.
type exactAgent struct {
	id   int32
	src  population.Host
	view netenv.SourceView
	gen  worm.TargetGenerator
}

// exactInfEvent is a phase-1 probe that reached at least one
// snapshot-susceptible victim. The victim ids live in the worker's flat
// victims buffer (nVictims consecutive entries); fallback is the outcome
// the probe takes if every victim was claimed by an earlier agent; agent
// is the probing host, kept so the merge phase can attribute the
// infection edge in the flight recorder.
type exactInfEvent struct {
	agent    int32
	fallback ProbeOutcome
	nVictims int32
}

// exactHit is a buffered OnProbe observation awaiting serial replay.
type exactHit struct {
	src, dst ipv4.Addr
}

// exactWorker is one phase-1 classification shard's private state. The
// environment generator is a value, reseeded per (agent, tick) — no
// worker ever shares randomness with another, which is what makes the
// tick's result independent of goroutine scheduling.
type exactWorker struct {
	envR     rng.Xoshiro
	probes   uint64
	outcomes OutcomeCounts
	events   []exactInfEvent
	victims  []int32
	hits     []exactHit
}

func (w *exactWorker) reset() {
	w.probes = 0
	w.outcomes = OutcomeCounts{}
	w.events = w.events[:0]
	w.victims = w.victims[:0]
	w.hits = w.hits[:0]
}

// RunExact runs the probe-exact simulation.
//
// Each tick executes in two phases. Phase 1 shards the agent list across
// cfg.Workers goroutines; every agent draws its probes from its own
// target generator plus a per-(agent,tick) environment RNG stream and
// classifies them against the tick-start infection snapshot, buffering
// candidate infections and sensor observations per worker. Phase 2 merges
// the buffers serially in agent order: duplicate infection candidates
// resolve first-agent-wins, and OnProbe callbacks replay in a fixed
// order. Results are byte-identical for every worker count.
func RunExact(cfg ExactConfig) (*Result, error) {
	if cfg.Topology != nil {
		return runExactGraph(cfg, cfg.Topology)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := cfg.Env
	if env == nil {
		env = &netenv.Environment{}
	}
	pop := cfg.Pop
	n := pop.Size()
	// Built per run, not cached on the population: the fast driver never
	// resolves addresses, and the index is immutable, so the phase-1
	// workers share it without locks.
	idx := population.NewIndex(pop)
	l := cfg.params().loop("exact", "exact")
	if cfg.SensorSet != nil {
		// ipv4.Set builds its indexes lazily on first read. Freeze it now so
		// the phase-1 workers' concurrent Contains calls are pure reads.
		cfg.SensorSet.Freeze()
	}

	infected := make([]bool, n)
	infTime := make([]float64, n)
	for i := range infTime {
		infTime[i] = -1
	}
	var agents []exactAgent
	infect := func(id int, t float64) {
		infected[id] = true
		infTime[id] = t
		h := pop.Host(id)
		agents = append(agents, exactAgent{
			id:   int32(id),
			src:  h,
			view: env.CompileSource(h.Addr),
			gen:  cfg.Factory.New(h.Addr, rng.Mix64(cfg.Seed^uint64(id)<<1|1)),
		})
	}
	rec := cfg.Trace
	seed := func() {
		r := rng.NewXoshiro(cfg.Seed)
		for _, id := range r.SampleWithoutReplacement(n, cfg.SeedHosts) {
			infect(id, 0)
			rec.AppendInfection(0, 0, -1, id, uint32(pop.Host(id).Addr), "seed")
		}
	}

	probesPerTick := int(cfg.ScanRate*cfg.TickSeconds + 0.5) // ≥1, by validation

	// Degraded reporting interposes between the wire and OnProbe: probes
	// are queued at observation time and delivered (possibly duplicated)
	// when the simulated clock passes their due time.
	onProbe := cfg.OnProbe
	if onProbe != nil {
		if l.reporter = cfg.Faults.NewReporter(onProbe); l.reporter != nil {
			onProbe = l.reporter.Report
		}
	}

	// classify is phase 1 for one shard: it draws the shard's probes and
	// classifies them against the tick-start infection snapshot. Agents
	// infected during this tick start probing next tick, and `infected` is
	// only written in phase 2, so the workers' shared reads are race-free.
	classify := func(w *exactWorker, shard []exactAgent, step uint64, t, burstLoss float64) {
		w.reset()
		for ai := range shard {
			a := &shard[ai]
			w.envR.SeedStream(cfg.Seed, uint64(a.id), step)
			for p := 0; p < probesPerTick; p++ {
				dst := a.gen.Next()
				w.probes++
				if dst.IsPrivate() {
					// Private destinations never cross the Internet:
					// they can only reach hosts on the same NAT site.
					if !a.src.IsNATed() {
						w.outcomes[OutcomePrivateDropped]++
						continue
					}
					blocked := false
					nv := int32(0)
					for _, vid := range idx.Private(dst) {
						if infected[vid] {
							continue
						}
						if netenv.CanReach(a.src, pop.Host(int(vid))) {
							w.victims = append(w.victims, vid)
							nv++
						} else {
							blocked = true
						}
					}
					fb := OutcomeDelivered
					switch {
					case blocked:
						fb = OutcomeNATBlocked
					case dst == a.src.Addr:
						fb = OutcomeSelfHit
					}
					if nv == 0 {
						w.outcomes[fb]++
					} else {
						w.events = append(w.events, exactInfEvent{agent: a.id, fallback: fb, nVictims: nv})
					}
					continue
				}
				if burstLoss > 0 && w.envR.Bernoulli(burstLoss) {
					w.outcomes[OutcomeBurstLost]++
					continue
				}
				if !a.view.Delivered(&w.envR) {
					w.outcomes[OutcomeFiltered]++
					continue
				}
				onSensor := cfg.SensorSet != nil && cfg.SensorSet.Contains(dst)
				if onSensor && cfg.Faults.SensorDown(dst, t) {
					// Delivered onto monitored space whose sensor is
					// withdrawn: nobody is listening, so the probe
					// never reaches OnProbe. Darknet space holds no
					// vulnerable hosts, so skipping the infection
					// lookup is exact.
					w.outcomes[OutcomeSensorDown]++
					continue
				}
				if onProbe != nil {
					w.hits = append(w.hits, exactHit{src: a.src.Addr, dst: dst})
				}
				nv := int32(0)
				if vid, ok := idx.Public(dst); ok && !infected[vid] && netenv.CanReach(a.src, pop.Host(vid)) {
					w.victims = append(w.victims, int32(vid))
					nv++
				}
				fb := OutcomeDelivered
				switch {
				case dst == a.src.Addr:
					fb = OutcomeSelfHit
				case onSensor:
					fb = OutcomeSensorHit
				}
				if nv == 0 {
					w.outcomes[fb]++
				} else {
					w.events = append(w.events, exactInfEvent{agent: a.id, fallback: fb, nVictims: nv})
				}
			}
		}
	}

	ws := make([]exactWorker, l.workers)
	bounds := make([]int, 0, l.workers+1)
	res := l.run(infTime, seed, func(step int, t, burstLoss float64) TickInfo {
		nShards := shardCount(l.workers, len(agents))
		bounds = evenCuts(bounds, len(agents), nShards)
		fanOut(bounds, func(wi, lo, hi int) {
			classify(&ws[wi], agents[lo:hi:hi], uint64(step), t, burstLoss)
		})

		// Phase 2: serial merge in agent order; duplicate infection
		// candidates resolve first-agent-wins.
		var newInf int
		var probes uint64
		var outcomes OutcomeCounts
		for _, w := range ws[:nShards] {
			probes += w.probes
			outcomes.Merge(w.outcomes)
		}
		for wi := range ws[:nShards] {
			w := &ws[wi]
			off := 0
			for _, ev := range w.events {
				hit := false
				for _, vid := range w.victims[off : off+int(ev.nVictims)] {
					if !infected[vid] {
						infect(int(vid), t)
						newInf++
						hit = true
						rec.AppendInfection(step, t, int(ev.agent), int(vid),
							uint32(pop.Host(int(vid)).Addr), "scan")
					}
				}
				off += int(ev.nVictims)
				if hit {
					outcomes[OutcomeInfection]++
				} else {
					outcomes[ev.fallback]++
				}
			}
		}
		if onProbe != nil {
			// Sensor observations replay after the infection merge, still
			// in agent order; fleets never read infection state, so the
			// two replay streams need no interleaving.
			for _, w := range ws[:nShards] {
				for _, h := range w.hits {
					onProbe(h.src, h.dst)
				}
			}
		}
		return TickInfo{Infected: len(agents), NewInfections: newInf, Probes: probes, Outcomes: outcomes}
	})
	return res, nil
}
