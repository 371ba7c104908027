package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runParams are the run parameters ExactConfig and FastConfig share: the
// ones the shared checks validate and the tick loop runs on. The world —
// IPv4 population or neighbor graph — stays with each driver.
type runParams struct {
	scanRate, tickSeconds, maxSeconds float64
	workers                           int
	onTick                            func(TickInfo) bool
	stopWhenInfected                  int
	metrics                           *obs.Registry
	metricLabels                      []string
	clock                             *obs.SimClock
	faults                            *faults.Plan
	trace                             *trace.Recorder
}

func (c *ExactConfig) params() runParams {
	return runParams{scanRate: c.ScanRate, tickSeconds: c.TickSeconds, maxSeconds: c.MaxSeconds,
		workers: c.Workers, onTick: c.OnTick, stopWhenInfected: c.StopWhenInfected,
		metrics: c.Metrics, metricLabels: c.MetricLabels, clock: c.Clock, faults: c.Faults, trace: c.Trace}
}

func (c *FastConfig) params() runParams {
	return runParams{scanRate: c.ScanRate, tickSeconds: c.TickSeconds, maxSeconds: c.MaxSeconds,
		workers: c.Workers, onTick: c.OnTick, stopWhenInfected: c.StopWhenInfected,
		metrics: c.Metrics, metricLabels: c.MetricLabels, clock: c.Clock, faults: c.Faults, trace: c.Trace}
}

// Caps on the per-run work a config may request. They exist to turn
// hostile-but-technically-positive values (an Inf horizon, a 1e300 scan
// rate) into errors instead of runs that loop effectively forever or
// overflow the float→int conversions sizing the tick loop.
const (
	// maxTicks bounds MaxSeconds/TickSeconds.
	maxTicks = 1e9
	// maxProbesPerHostTick bounds ScanRate·TickSeconds.
	maxProbesPerHostTick = 1e8
)

// check validates the shared run parameters: rate, step and horizon all
// finite and positive, at least one whole tick and a tick count that fits
// comfortably in an int, the per-host probe cap, a non-negative worker
// count, and a fault plan covering the horizon. The exact drivers draw
// whole probes, so they also need at least one per host per tick.
func (p runParams) check(exact bool) error {
	for _, v := range [...]float64{p.scanRate, p.tickSeconds, p.maxSeconds} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("sim: rates and durations must be positive and finite (got rate=%v tick=%v horizon=%v)", p.scanRate, p.tickSeconds, p.maxSeconds)
		}
	}
	steps := p.maxSeconds / p.tickSeconds
	if steps < 1 {
		return fmt.Errorf("sim: horizon %v shorter than one %v-second tick", p.maxSeconds, p.tickSeconds)
	}
	if steps > maxTicks {
		return fmt.Errorf("sim: %v ticks exceed the %v cap", steps, float64(maxTicks))
	}
	perHost := p.scanRate * p.tickSeconds
	if perHost > maxProbesPerHostTick {
		return fmt.Errorf("sim: %v probes per host per tick exceeds the %v cap", perHost, float64(maxProbesPerHostTick))
	}
	if exact && int(perHost+0.5) < 1 {
		return errors.New("sim: exact driver needs ≥1 probe per host per tick")
	}
	if p.workers < 0 {
		return fmt.Errorf("sim: negative worker count %d (0 means GOMAXPROCS)", p.workers)
	}
	// A plan compiled over a shorter horizon than the run would answer
	// queries past its horizon with the fault-free state, making the tail
	// of the run quietly healthy.
	if p.faults != nil && p.faults.Horizon() < p.maxSeconds {
		return fmt.Errorf("sim: fault plan horizon %v < run length %v", p.faults.Horizon(), p.maxSeconds)
	}
	return nil
}

// tickLoop is the tick shell all four drivers share (DESIGN.md §9). A
// driver builds one with loop, does its own set-up, and hands run its seed
// infections and its per-tick step; everything between the steps — clock,
// fault schedule, degraded reporting, the tick's bookkeeping, trace and
// metrics, OnTick and the stop rule — happens here, once.
type tickLoop struct {
	runParams
	// driver labels the run's metrics ("exact" or "fast"); detail is the
	// phase events' Detail.
	driver, detail string
	// reporter, when non-nil, queues the run's sensor observations under
	// the plan's degraded reporting; the loop advances it to each tick's
	// time and drains it at the end of the run.
	reporter *faults.Reporter
	// afterTick, when non-nil, runs after every tick that neither OnTick
	// nor StopWhenInfected ended (the IPv4 fast driver's containment).
	afterTick func(t float64)
}

// loop returns the tick loop for p, with Workers resolved: 0 means
// runtime.GOMAXPROCS(0).
func (p runParams) loop(driver, detail string) *tickLoop {
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	return &tickLoop{runParams: p, driver: driver, detail: detail}
}

// run opens the trace with the start phase event, calls seed to infect
// the seed hosts at t = 0, and then runs up to MaxSeconds/TickSeconds
// ticks. Each tick sets the clock, advances the reporter and the fault
// schedule, and calls tick with the tick's number, time and burst-loss
// rate. tick draws and merges the tick and returns its info without Time,
// which the loop fills in before it records the tick. The run ends after
// the tick on which OnTick returns false or the infected count reaches
// StopWhenInfected; the reporter then drains, and the end phase event
// closes the trace.
func (l *tickLoop) run(infTime []float64, seed func(), tick func(step int, t, burstLoss float64) TickInfo) *Result {
	rec := l.trace
	rec.Append(trace.Event{Tick: 0, T: 0, Kind: trace.KindPhase, Agent: -1, Victim: -1, Vector: "start", Detail: l.detail})
	seed()
	steps := int(l.maxSeconds / l.tickSeconds)
	res := &Result{InfectionTime: infTime, Series: make([]TickInfo, 0, steps)}
	metrics := newSimMetrics(l.metrics, l.driver, l.metricLabels)
	metrics.attachFaults(l.metrics, l.faults, l.driver, l.metricLabels)
	var faultCursor faults.TraceCursor
	for step := 1; step <= steps; step++ {
		t := float64(step) * l.tickSeconds
		l.clock.Set(t)
		if l.reporter != nil {
			l.reporter.Advance(t)
		}
		faultCursor.Observe(rec, l.faults, step, t)
		info := tick(step, t, l.faults.BurstLoss(t))
		info.Time = t
		res.Series = append(res.Series, info)
		res.Final = info
		res.Outcomes.Merge(info.Outcomes)
		if rec != nil {
			rec.Append(trace.Event{Tick: step, T: t, Kind: trace.KindProbes, Agent: -1, Victim: -1,
				N: info.Probes, Detail: info.Outcomes.String()})
		}
		metrics.flushTick(info)
		metrics.flushFaults(l.faults, t)
		if l.onTick != nil && !l.onTick(info) {
			break
		}
		if l.stopWhenInfected > 0 && info.Infected >= l.stopWhenInfected {
			break
		}
		if l.afterTick != nil {
			l.afterTick(t)
		}
	}
	if l.reporter != nil {
		// End of run: deliver everything still in flight so detection sees
		// every observation exactly as a real collector drain would.
		l.reporter.Flush()
	}
	rec.Append(trace.Event{Tick: len(res.Series), T: res.Final.Time, Kind: trace.KindPhase,
		Agent: -1, Victim: -1, Vector: "end", Detail: l.detail, N: uint64(res.Final.Infected)})
	return res
}

// shardCount is the number of phase-1 shards for n items: one per worker,
// but never more than there are items, and at least one.
func shardCount(workers, n int) int {
	return max(1, min(workers, n))
}

// evenCuts refills bounds with the cuts of n items into nShards
// contiguous shards of equal count.
func evenCuts(bounds []int, n, nShards int) []int {
	bounds = bounds[:0]
	for wi := 0; wi <= nShards; wi++ {
		bounds = append(bounds, wi*n/nShards)
	}
	return bounds
}

// fanOut runs phase 1 over the contiguous shards [bounds[wi],
// bounds[wi+1]): work runs on the calling goroutine when there is one
// shard, and on one goroutine per shard otherwise. Each shard writes only
// its own worker state; the caller merges the shards serially in index
// order, which replays them exactly as one pass over the items in order
// would.
func fanOut(bounds []int, work func(wi, lo, hi int)) {
	nShards := len(bounds) - 1
	if nShards == 1 {
		work(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	for wi := 0; wi < nShards; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(wi, bounds[wi], bounds[wi+1])
		}()
	}
	wg.Wait()
}
