package sim

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/worm"
)

// loopHooks are the shared run parameters the tick-loop contract reads.
type loopHooks struct {
	onTick           func(TickInfo) bool
	stopWhenInfected int
	metrics          *obs.Registry
	clock            *obs.SimClock
	trace            *trace.Recorder
}

// loopDriver is one of the four drivers, set up with a run whose stop
// target is crossed well before its horizon.
type loopDriver struct {
	name    string
	label   string // the driver label on the run's metrics
	horizon float64
	target  int
	run     func(t *testing.T, h loopHooks) *Result
}

func loopDrivers(t *testing.T) []loopDriver {
	const horizon = 1000
	exact := exactConservationConfig(t)
	exact.MaxSeconds = horizon

	pop := smallPop(t, 600, 23)
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	fast := FastConfig{
		Pop: pop, Model: &HitListModel{List: ipv4.SetOfPrefixes(list...)},
		ScanRate: 800, TickSeconds: 1, MaxSeconds: horizon, SeedHosts: 5, Seed: 24,
	}

	g := testGraph(t)
	exactGraph := ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1, MaxSeconds: horizon, SeedHosts: 5, Seed: 4242}
	fastGraph := FastConfig{Topology: g, ScanRate: 2, TickSeconds: 1, MaxSeconds: horizon, SeedHosts: 5, Seed: 4242}

	runExact := func(cfg ExactConfig) func(*testing.T, loopHooks) *Result {
		return func(t *testing.T, h loopHooks) *Result {
			cfg.OnTick, cfg.StopWhenInfected = h.onTick, h.stopWhenInfected
			cfg.Metrics, cfg.Clock, cfg.Trace = h.metrics, h.clock, h.trace
			res, err := RunExact(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	runFast := func(cfg FastConfig) func(*testing.T, loopHooks) *Result {
		return func(t *testing.T, h loopHooks) *Result {
			cfg.OnTick, cfg.StopWhenInfected = h.onTick, h.stopWhenInfected
			cfg.Metrics, cfg.Clock, cfg.Trace = h.metrics, h.clock, h.trace
			res, err := RunFast(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	return []loopDriver{
		{name: "exact", label: "exact", horizon: horizon, target: 100, run: runExact(exact)},
		{name: "fast", label: "fast", horizon: horizon, target: 100, run: runFast(fast)},
		{name: "exact-graph", label: "exact", horizon: horizon, target: 100, run: runExact(exactGraph)},
		{name: "fast-graph", label: "fast", horizon: horizon, target: 100, run: runFast(fastGraph)},
	}
}

// TestTickLoopContract pins the rules every driver's tick loop keeps:
// OnTick runs after every tick, clock set to the tick's time, and
// returning false ends the run after that tick, ahead of the
// StopWhenInfected check; StopWhenInfected ends the run on the tick that
// crosses the target; however the run ends, every emitted tick is flushed
// to the metrics, and the trace is bracketed by the start and end phase
// events, the end one naming the last tick and the final infected count.
func TestTickLoopContract(t *testing.T) {
	rows := []struct {
		name string
		stop bool // set StopWhenInfected to the driver's target
		// cont is OnTick's answer on its n'th call.
		cont func(n int) bool
		// wantTicks is the run length; 0 means the tick that crosses the
		// target.
		wantTicks int
	}{
		{name: "ontick-stop", cont: func(n int) bool { return n < 7 }, wantTicks: 7},
		{name: "stop-when-infected", stop: true, cont: func(int) bool { return true }},
		{name: "ontick-false-overrides-stop", stop: true, cont: func(int) bool { return false }, wantTicks: 1},
	}
	for _, d := range loopDrivers(t) {
		t.Run(d.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					reg := obs.NewRegistry()
					clock := &obs.SimClock{}
					rec := trace.NewRecorder(0)
					calls, clockMisses := 0, 0
					h := loopHooks{
						onTick: func(ti TickInfo) bool {
							calls++
							if clock.Seconds() != ti.Time {
								clockMisses++
							}
							return row.cont(calls)
						},
						metrics: reg, clock: clock, trace: rec,
					}
					if row.stop {
						h.stopWhenInfected = d.target
					}
					res := d.run(t, h)
					n := len(res.Series)

					if calls != n {
						t.Errorf("OnTick ran %d times over %d ticks", calls, n)
					}
					if clockMisses > 0 {
						t.Errorf("clock differed from the tick's time in %d OnTick calls", clockMisses)
					}
					if row.wantTicks > 0 && n != row.wantTicks {
						t.Errorf("ran %d ticks, want %d", n, row.wantTicks)
					}
					if row.wantTicks == 0 {
						if res.Final.Infected < d.target || res.Final.Time >= d.horizon {
							t.Errorf("StopWhenInfected did not engage: infected=%d t=%.0f", res.Final.Infected, res.Final.Time)
						}
						for _, ti := range res.Series[:n-1] {
							if ti.Infected >= d.target {
								t.Fatalf("ran past the tick at t=%v that reached %d infected", ti.Time, ti.Infected)
							}
						}
					}

					if got := reg.Counter("sim_ticks_total", "driver", d.label).Value(); got != uint64(n) {
						t.Errorf("sim_ticks_total = %d, want %d (every emitted tick flushed)", got, n)
					}
					var probeSum uint64
					for _, ti := range res.Series {
						probeSum += ti.Probes
					}
					if got := reg.Counter("sim_probes_emitted_total", "driver", d.label).Value(); got != probeSum {
						t.Errorf("sim_probes_emitted_total = %d, want %d", got, probeSum)
					}

					evs := rec.Events()
					if len(evs) < 2 {
						t.Fatalf("trace holds %d events", len(evs))
					}
					if first := evs[0]; first.Kind != trace.KindPhase || first.Vector != "start" || first.Tick != 0 {
						t.Errorf("trace opens with %+v, want the start phase event", first)
					}
					last := evs[len(evs)-1]
					if last.Kind != trace.KindPhase || last.Vector != "end" {
						t.Fatalf("trace closes with %+v, want the end phase event", last)
					}
					if last.Tick != n || last.N != uint64(res.Final.Infected) || last.T != res.Final.Time {
						t.Errorf("end event tick=%d n=%d t=%v, want tick=%d n=%d t=%v",
							last.Tick, last.N, last.T, n, res.Final.Infected, res.Final.Time)
					}
				})
			}
		})
	}
}
