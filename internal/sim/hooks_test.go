package sim

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/obs"
	"repro/internal/worm"
)

// These tests pin the driver hook contracts and the probe-outcome
// conservation invariant: every emitted probe is classified into exactly
// one ProbeOutcome, so the per-tick outcome counts must sum to
// TickInfo.Probes and the run-cumulative counts to the probe total.

// exactConservationConfig builds an exact run that exercises several
// outcome classes at once: an egress filter (filtered), NAT'd hosts
// (private-dropped / nat-blocked), a sensor set (sensor-hit), and a full
// hit-list (infections).
func exactConservationConfig(t *testing.T) ExactConfig {
	t.Helper()
	pop := smallPop(t, 400, 21)
	if err := pop.AssignNAT(0.3, 0, 2); err != nil {
		t.Fatal(err)
	}
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	env := &netenv.Environment{}
	env.AddEgressFilter(ipv4.MustParsePrefix("0.0.0.0/1"), 0.5)
	fleet, err := detect.NewThresholdFleet(
		[]ipv4.Prefix{ipv4.MustParsePrefix("200.1.2.0/24")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ExactConfig{
		Pop: pop, Env: env,
		Factory:  worm.HitListFactory{ListSet: ipv4.SetOfPrefixes(list...)},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 60,
		SeedHosts: 8, Seed: 22, StopWhenInfected: 350,
		SensorSet: fleet.Union(),
	}
}

func TestExactProbeConservation(t *testing.T) {
	res, err := RunExact(exactConservationConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var probeSum uint64
	for i, ti := range res.Series {
		if got := ti.Outcomes.Total(); got != ti.Probes {
			t.Fatalf("tick %d: outcomes sum to %d, probes %d (%s)", i, got, ti.Probes, ti.Outcomes)
		}
		probeSum += ti.Probes
	}
	if got := res.Outcomes.Total(); got != probeSum {
		t.Fatalf("cumulative outcomes sum to %d, total probes %d", got, probeSum)
	}
	if res.Outcomes[OutcomeInfection] == 0 {
		t.Error("hit-list run recorded no infection outcomes")
	}
	if res.Outcomes[OutcomeFiltered] == 0 {
		t.Error("run with a 50% egress filter recorded no filtered outcomes")
	}
	if res.Outcomes[OutcomePrivateDropped] == 0 {
		t.Error("NAT'd run recorded no private-dropped outcomes")
	}
}

func TestFastProbeConservation(t *testing.T) {
	pop := smallPop(t, 400, 23)
	fleet, err := detect.NewThresholdFleet(
		detect.OnePerSlash16([]uint32{200 << 24}, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFast(FastConfig{
		Pop: pop, Model: NewCodeRedIIModel(),
		ScanRate: 500, TickSeconds: 1, MaxSeconds: 300, SeedHosts: 8, Seed: 24,
		Sensors: fleet, SensorSet: fleet.Union(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var probeSum uint64
	for i, ti := range res.Series {
		if got := ti.Outcomes.Total(); got != ti.Probes {
			t.Fatalf("tick %d: outcomes sum to %d, probes %d (%s)", i, got, ti.Probes, ti.Outcomes)
		}
		probeSum += ti.Probes
	}
	if got := res.Outcomes.Total(); got != probeSum {
		t.Fatalf("cumulative outcomes sum to %d, total probes %d", got, probeSum)
	}
	if res.Outcomes[OutcomeInfection] == 0 {
		t.Error("epidemic recorded no infection outcomes")
	}
}

func TestFastTickOutcomesConserveOnOvershoot(t *testing.T) {
	// Regression: realized Poisson infection/sensor draws are not bounded
	// by the tick's expected probe count. When they overshoot it, the
	// probe total must widen to the realized sum instead of silently
	// breaking Outcomes.Total() == Probes.
	cases := []struct {
		name        string
		probes      float64
		newInf      int
		sensorDraws uint64
		deliver     float64
	}{
		{"overshoot small tick", 1.4, 2, 1, 0.5},
		{"overshoot zero expectation", 0.4, 1, 0, 1},
		{"normal tick", 1000, 3, 2, 0.8},
		{"all filtered", 100, 0, 0, 0},
	}
	for _, tc := range cases {
		probes, outcomes := closeFastTickOutcomes(tc.probes, tc.newInf, tc.sensorDraws, 0, tc.deliver, 0)
		if got := outcomes.Total(); got != probes {
			t.Errorf("%s: outcomes sum to %d, probes %d (%s)", tc.name, got, probes, outcomes)
		}
		if outcomes[OutcomeInfection] != uint64(tc.newInf) || outcomes[OutcomeSensorHit] != tc.sensorDraws {
			t.Errorf("%s: realized draws must be kept as counted, got %s", tc.name, outcomes)
		}
		if want := uint64(tc.probes); probes < want {
			t.Errorf("%s: probe total %d shrank below emitted %d", tc.name, probes, want)
		}
	}
}

func TestExactOnProbeSeesExactlyPublicDeliveredProbes(t *testing.T) {
	// Without NAT'd hosts every private destination is dropped before
	// OnProbe, and the only other pre-OnProbe drop is the environment
	// filter — so the OnProbe call count is exactly probes − filtered −
	// private-dropped.
	pop := smallPop(t, 300, 25)
	env := &netenv.Environment{}
	env.AddEgressFilter(ipv4.MustParsePrefix("0.0.0.0/1"), 0.5)
	var onProbe uint64
	res, err := RunExact(ExactConfig{
		Pop: pop, Env: env, Factory: worm.UniformFactory{},
		ScanRate: 1000, TickSeconds: 1, MaxSeconds: 40, SeedHosts: 10, Seed: 26,
		OnProbe: func(src, dst ipv4.Addr) { onProbe++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Outcomes.Total() -
		res.Outcomes[OutcomeFiltered] - res.Outcomes[OutcomePrivateDropped]
	if onProbe != want {
		t.Errorf("OnProbe called %d times, want %d (%s)", onProbe, want, res.Outcomes)
	}
	if res.Outcomes[OutcomeFiltered] == 0 {
		t.Error("expected some filtered probes under a 50% egress filter")
	}
}

func TestExactOnTickEarlyStopStillFlushesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := exactConservationConfig(t)
	cfg.Metrics = reg
	cfg.StopWhenInfected = 0
	ticks := 0
	cfg.OnTick = func(ti TickInfo) bool {
		ticks++
		return ticks < 5
	}
	res, err := RunExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("OnTick stop after 5 ticks produced %d series entries", len(res.Series))
	}
	if got := reg.Counter("sim_ticks_total", "driver", "exact").Value(); got != 5 {
		t.Errorf("sim_ticks_total = %d, want 5 (every emitted tick flushed)", got)
	}
	var probeSum uint64
	for _, ti := range res.Series {
		probeSum += ti.Probes
	}
	if got := reg.Counter("sim_probes_emitted_total", "driver", "exact").Value(); got != probeSum {
		t.Errorf("sim_probes_emitted_total = %d, want %d", got, probeSum)
	}
}

func TestExactMetricsMatchResultOutcomes(t *testing.T) {
	reg := obs.NewRegistry()
	clock := &obs.SimClock{}
	cfg := exactConservationConfig(t)
	cfg.Metrics = reg
	cfg.Clock = clock
	res, err := RunExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var probeSum uint64
	for _, ti := range res.Series {
		probeSum += ti.Probes
	}
	for i := 0; i < NumOutcomes; i++ {
		ctr := reg.Counter("sim_probes_total",
			"driver", "exact", "outcome", ProbeOutcome(i).String())
		if got := ctr.Value(); got != res.Outcomes[i] {
			t.Errorf("sim_probes_total{outcome=%s} = %d, Result says %d",
				ProbeOutcome(i), got, res.Outcomes[i])
		}
	}
	if got := reg.Counter("sim_probes_emitted_total", "driver", "exact").Value(); got != probeSum {
		t.Errorf("sim_probes_emitted_total = %d, want %d", got, probeSum)
	}
	if got := reg.Counter("sim_ticks_total", "driver", "exact").Value(); got != uint64(len(res.Series)) {
		t.Errorf("sim_ticks_total = %d, want %d", got, len(res.Series))
	}
	if got := clock.Seconds(); got != res.Final.Time {
		t.Errorf("clock = %v at end of run, want final tick time %v", got, res.Final.Time)
	}
}

func TestTimeToFractionTinyFractionNeedsAnInfection(t *testing.T) {
	// Regression: with a large population, a tiny fraction rounds to a
	// target of zero hosts, which the first tick satisfies vacuously even
	// when nothing is infected. The target must clamp to one host.
	res := &Result{
		InfectionTime: make([]float64, 100000),
		Series: []TickInfo{
			{Time: 1, Infected: 0},
			{Time: 2, Infected: 0},
			{Time: 3, Infected: 7},
		},
	}
	tt, ok := res.TimeToFraction(0.000001)
	if !ok || tt != 3 {
		t.Errorf("TimeToFraction(1e-6) = (%v, %v), want (3, true): zero-infection ticks must not satisfy a positive fraction", tt, ok)
	}
	// A run that never infects anyone never reaches any positive fraction.
	res.Series = res.Series[:2]
	if _, ok := res.TimeToFraction(0.000001); ok {
		t.Error("TimeToFraction reported success on a run with zero infections")
	}
}
