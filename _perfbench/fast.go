package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/topo/proxgraph"
	"repro/internal/trace"
)

// fastWorkload is an outbreak workload on sim.RunFast over a world of type
// W: the world is built setupReps times (setup_s is the median), then the
// outbreak of every expanded seed runs, pass after pass, until the time
// budget is spent.
type fastWorkload[W any] struct {
	seeds     int // sim seeds per run, expanded from the workload seed
	setupReps int
	build     func() (W, error)
	config    func(w W, seed uint64) sim.FastConfig

	// Per-layer names: the build call's span, its time and size figures,
	// and the driver's set-up, per-tick and allocation figures.
	buildSpan                            string
	buildMetric, sizeMetric              string
	size                                 func(W) float64
	setupMetric, tickMetric, allocMetric string
	// flightRecorder re-runs one seed with a trace.Recorder attached to
	// price the trace layer.
	flightRecorder bool
}

// coderedPaper is the paper's §5 platform: the 134,586-host CodeRedII
// population, 10 probes/s, 25 seed hosts, 2000 one-second ticks, one worker.
func coderedPaper(toy bool) fastWorkload[*population.Population] {
	pc, maxSeconds := population.DefaultCodeRedII(1), 2000.0
	if toy {
		pc.Size, maxSeconds = 20_000, 100
	}
	wl := ipv4Workload(pc, func(p *population.Population, seed uint64) sim.FastConfig {
		return sim.FastConfig{
			Pop: p, Model: sim.NewCodeRedIIModel(),
			ScanRate: 10, TickSeconds: 1, MaxSeconds: maxSeconds, SeedHosts: 25,
			Seed: seed, Workers: 1,
		}
	})
	wl.seeds, wl.setupReps, wl.flightRecorder = 8, 9, true
	return wl
}

// internet10M is a 10⁷-host CodeRedII outbreak at 200 probes/s to five
// million infections on two workers: set-up is a real share of the run and
// the live index no longer fits in cache.
func internet10M(toy bool) fastWorkload[*population.Population] {
	size, stop := 10_000_000, 5_000_000
	if toy {
		size, stop = 200_000, 100_000
	}
	wl := ipv4Workload(population.InternetScale(size, 1), func(p *population.Population, seed uint64) sim.FastConfig {
		return sim.FastConfig{
			Pop: p, Model: sim.NewCodeRedIIModel(),
			ScanRate: 200, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 25,
			Seed: seed, Workers: 2, StopWhenInfected: stop,
		}
	})
	// Five seeds, where three would do for the host: the tick at which an
	// outbreak crosses its stop target varies with the seed, which moves
	// its time by an eighth, and a median of five absorbs that.
	wl.seeds, wl.setupReps = 5, 3
	return wl
}

// ipv4Workload is a fast-driver workload over a synthesized population.
func ipv4Workload(pc population.Config, config func(*population.Population, uint64) sim.FastConfig) fastWorkload[*population.Population] {
	return fastWorkload[*population.Population]{
		build:       func() (*population.Population, error) { return population.Synthesize(pc) },
		config:      config,
		buildSpan:   "population.Synthesize",
		buildMetric: "population.synthesize_s",
		sizeMetric:  "population.hosts",
		size:        func(p *population.Population) float64 { return float64(p.Size()) },
		setupMetric: "sim.fast_setup_s",
		tickMetric:  "sim.fast_tick_ms",
		allocMetric: "sim.alloc_mb",
	}
}

// graph1M is a proximity-graph outbreak: a 10⁶-node mutual-8-NN world with
// 10⁴ sensors, 2 probes/s to 500,000 infections on one worker. World
// construction dominates set-up and shares no code with the IPv4 arena.
func graph1M(toy bool) fastWorkload[*proxgraph.World] {
	gc, stop := proxgraph.Config{Nodes: 1_000_000, Degree: 8, Sensors: 10_000, Seed: 1}, 500_000
	if toy {
		gc.Nodes, gc.Sensors, stop = 20_000, 200, 10_000
	}
	return fastWorkload[*proxgraph.World]{
		seeds:     8,
		setupReps: 2,
		build:     func() (*proxgraph.World, error) { return proxgraph.New(gc) },
		config: func(w *proxgraph.World, seed uint64) sim.FastConfig {
			return sim.FastConfig{
				Topology: w, ScanRate: 2, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 25,
				Seed: seed, Workers: 1, StopWhenInfected: stop,
			}
		},
		buildSpan:   "proxgraph.New",
		buildMetric: "proxgraph.new_s",
		sizeMetric:  "proxgraph.edges",
		size:        func(w *proxgraph.World) float64 { return float64(w.Edges()) },
		setupMetric: "sim.graph_setup_s",
		tickMetric:  "sim.graph_tick_ms",
		allocMetric: "sim.graph_alloc_mb",
	}
}

// expandSeeds turns the workload seed into the run's n sim seeds: the
// contiguous block seed·n+1 … seed·n+n, so seed 0 is sims 1…n.
func expandSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*uint64(n) + uint64(i) + 1
	}
	return out
}

// runFast measures a fast-driver workload.
func runFast[W any](wl fastWorkload[W], o options) (*report, error) {
	rep := newReport(o.log)
	seeds := expandSeeds(o.seed, wl.seeds)
	fmt.Fprintf(o.log, "perfbench: sim seeds %v\n", seeds)

	// Set-up: build the world setupReps times per side, dropping the
	// previous world first so that only one is ever live.
	var world W
	var setup samples
	for i := 0; i < wl.setupReps; i++ {
		for _, sp := range o.variants(i) {
			var none W
			world = none
			runtime.GC()
			var w W
			var err error
			d := o.host.time(func(func()) {
				id := sp.begin(wl.buildSpan, 0)
				w, err = wl.build()
				sp.end(id, 0)
			})
			if err != nil {
				return nil, fmt.Errorf("build world: %w", err)
			}
			world = w
			setup.add(sp, d)
		}
	}

	// Timed passes over the seed list. Every result is checked, and every
	// repeat of a seed must reproduce its first result bit for bit.
	var latency, busy samples
	var tr tracedRuns
	digests := map[uint64][32]byte{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.budget; pass++ {
		for i, seed := range seeds {
			for _, sp := range o.variants(pass*len(seeds) + i) {
				cfg := wl.config(world, seed)
				runtime.GC()
				alloc := 0.0
				if sp != nil {
					alloc = allocatedMB()
				}
				var res *sim.Result
				var err error
				d := o.host.time(func(checkpoint func()) {
					cfg.OnTick = func(sim.TickInfo) bool { checkpoint(); return true }
					id := sp.begin("sim.RunFast", 0)
					res, err = sim.RunFast(cfg)
					sp.end(id, 0)
				})
				if err != nil {
					rep.op(fmt.Errorf("seed %d: %w", seed, err))
					continue
				}
				if o.corrupt && pass == 0 && i == 0 && sp == nil {
					res.Series = res.Series[:len(res.Series)-1] // drop a tick
				}
				rep.op(checkOutbreak(cfg, res, digests))
				latency.add(sp, d*1e3)
				busy.add(sp, d)
				if sp != nil {
					tr.allocMB = append(tr.allocMB, allocatedMB()-alloc)
					tr.ticks = append(tr.ticks, float64(len(res.Series)))
					tr.infections = append(tr.infections, float64(res.Final.Infected))
					tr.probes = append(tr.probes, float64(res.Outcomes.Total()))
				}
			}
		}
	}
	rep.setEndToEnd(setup, latency, busy)

	// Verification pass: rerun the first seed, untimed.
	cfg := wl.config(world, seeds[0])
	res, err := sim.RunFast(cfg)
	if err == nil {
		err = checkOutbreak(cfg, res, digests)
	}
	rep.op(err)

	if o.spans != nil {
		if err := fastLayers(wl, o, world, seeds, setup, latency, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedRuns collects what the traced outbreaks feed the per-layer figures.
type tracedRuns struct{ ticks, infections, probes, allocMB []float64 }

// fastLayers runs the traced-only measurements of a fast workload and
// fills its per-layer figures: the driver's set-up as a one-tick run of
// every seed, the per-tick cost, allocation, outbreak counts and, where the
// workload asks, the flight recorder's cost.
func fastLayers[W any](wl fastWorkload[W], o options, world W, seeds []uint64, setup, latency samples, tr tracedRuns, rep *report) error {
	var oneTick []float64
	for _, seed := range seeds {
		cfg := wl.config(world, seed)
		cfg.MaxSeconds, cfg.StopWhenInfected = cfg.TickSeconds, 0
		var err error
		oneTick = append(oneTick, o.host.time(func(func()) {
			id := o.spans.begin("sim.RunFast(one tick)", 0)
			_, err = sim.RunFast(cfg)
			o.spans.end(id, 0)
		}))
		if err != nil {
			return fmt.Errorf("one-tick run: %w", err)
		}
	}
	rep.layer[wl.buildMetric] = median(setup.traced)
	rep.layer[wl.sizeMetric] = wl.size(world)
	rep.layer[wl.setupMetric] = median(oneTick)
	rep.layer[wl.tickMetric] = (median(latency.traced) - median(oneTick)*1e3) / median(tr.ticks)
	rep.layer[wl.allocMetric] = median(tr.allocMB)
	rep.layer["sim.ticks"] = median(tr.ticks)
	rep.layer["sim.infections"] = median(tr.infections)
	rep.layer["sim.probes"] = median(tr.probes)
	if wl.flightRecorder {
		return flightRecorderLayer(wl.config(world, seeds[0]), o, rep)
	}
	return nil
}

// flightRecorderLayer prices the trace layer: three runs of one seed with a
// trace.Recorder attached, alternating with three without, then the
// recorder's NDJSON dump. The recorder must leave the result unchanged.
func flightRecorderLayer(cfg sim.FastConfig, o options, rep *report) error {
	var plain, recorded []float64
	var rec *trace.Recorder
	digests := map[uint64][32]byte{}
	for i := 0; i < 6; i++ {
		c := cfg
		name := "sim.RunFast"
		if i%2 == 1 {
			rec = trace.NewRecorder(0)
			c.Trace, c.Clock, name = rec, &obs.SimClock{}, "sim.RunFast(flight recorder)"
		}
		var res *sim.Result
		var err error
		runtime.GC()
		d := o.host.time(func(checkpoint func()) {
			c.OnTick = func(sim.TickInfo) bool { checkpoint(); return true }
			id := o.spans.begin(name, 0)
			res, err = sim.RunFast(c)
			o.spans.end(id, 0)
		})
		if err != nil {
			return fmt.Errorf("flight-recorder run: %w", err)
		}
		rep.op(checkOutbreak(c, res, digests))
		if c.Trace == nil {
			plain = append(plain, d)
		} else {
			recorded = append(recorded, d)
		}
	}
	var n countingWriter
	var err error
	rep.layer["trace.ndjson_s"] = o.host.time(func(func()) {
		id := o.spans.begin("trace.WriteNDJSON", 0)
		err = rec.WriteNDJSON(&n)
		o.spans.end(id, int64(n))
	})
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	rep.layer["trace.record_s"] = median(recorded) - median(plain)
	rep.layer["trace.events"] = float64(rec.Len())
	rep.layer["trace.ndjson_bytes"] = float64(n)
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// checkOutbreak checks one outbreak: the outcome tally equals the per-tick
// probe counts, infections never fall, the run reaches its stop target, and
// the result is bit-identical to any earlier run of the same seed, whose
// digest it records in digests.
func checkOutbreak(cfg sim.FastConfig, r *sim.Result, digests map[uint64][32]byte) error {
	var probes uint64
	infected := 0
	for i, ti := range r.Series {
		probes += ti.Probes
		if ti.Infected < infected {
			return fmt.Errorf("seed %d: infections fell from %d to %d at tick %d", cfg.Seed, infected, ti.Infected, i)
		}
		infected = ti.Infected
	}
	if total := r.Outcomes.Total(); total != probes {
		return fmt.Errorf("seed %d: outcome tally %d differs from the per-tick probe sum %d", cfg.Seed, total, probes)
	}
	if cfg.StopWhenInfected > 0 {
		if r.Final.Infected < cfg.StopWhenInfected {
			return fmt.Errorf("seed %d: stalled at %d of %d infections", cfg.Seed, r.Final.Infected, cfg.StopWhenInfected)
		}
	} else if want := int(math.Round(cfg.MaxSeconds / cfg.TickSeconds)); len(r.Series) != want {
		return fmt.Errorf("seed %d: ran %d of %d ticks", cfg.Seed, len(r.Series), want)
	}
	d := digest(r)
	if first, ok := digests[cfg.Seed]; ok && first != d {
		return fmt.Errorf("seed %d: rerun is not bit-identical to the first run", cfg.Seed)
	}
	digests[cfg.Seed] = d
	return nil
}

// digest hashes every observable of a result — the per-tick series, the
// final tick, each host's infection time and the outcome tally — bit for
// bit.
func digest(r *sim.Result) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	put := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	tick := func(ti sim.TickInfo) {
		put(math.Float64bits(ti.Time))
		put(uint64(ti.Infected))
		put(uint64(ti.NewInfections))
		put(ti.Probes)
		for _, c := range ti.Outcomes {
			put(c)
		}
	}
	for _, ti := range r.Series {
		tick(ti)
	}
	tick(r.Final)
	for _, t := range r.InfectionTime {
		put(math.Float64bits(t))
	}
	for _, c := range r.Outcomes {
		put(c)
	}
	h.Write(buf)
	var out [32]byte
	h.Sum(out[:0])
	return out
}
