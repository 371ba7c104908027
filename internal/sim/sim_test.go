package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/detect"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/worm"
)

// smallPop builds a compact clustered population for driver tests.
func smallPop(t *testing.T, size int, seed uint64) *population.Population {
	t.Helper()
	p, err := population.Synthesize(population.Config{
		Size:             size,
		Slash8s:          6,
		Slash16s:         24,
		Include192Slash8: true,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactConfigValidation(t *testing.T) {
	pop := smallPop(t, 100, 1)
	base := ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 10, TickSeconds: 1, MaxSeconds: 10, SeedHosts: 5, Seed: 1,
	}
	mutations := []struct {
		name string
		mut  func(*ExactConfig)
	}{
		{name: "nil-pop", mut: func(c *ExactConfig) { c.Pop = nil }},
		{name: "nil-factory", mut: func(c *ExactConfig) { c.Factory = nil }},
		{name: "zero-rate", mut: func(c *ExactConfig) { c.ScanRate = 0 }},
		{name: "zero-tick", mut: func(c *ExactConfig) { c.TickSeconds = 0 }},
		{name: "zero-horizon", mut: func(c *ExactConfig) { c.MaxSeconds = 0 }},
		{name: "zero-seeds", mut: func(c *ExactConfig) { c.SeedHosts = 0 }},
		{name: "too-many-seeds", mut: func(c *ExactConfig) { c.SeedHosts = 101 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := RunExact(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestExactHitListEpidemicSaturates(t *testing.T) {
	pop := smallPop(t, 500, 2)
	list, cover := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	if cover != 1 {
		t.Fatalf("full hit-list covers %.3f", cover)
	}
	set := ipv4.SetOfPrefixes(list...)
	res, err := RunExact(ExactConfig{
		Pop:     pop,
		Factory: worm.HitListFactory{ListSet: set},
		// High scan rate so the tiny population saturates quickly: the
		// hit-list space is 24 /16s ≈ 1.6M addresses. Stop at 96% to avoid
		// simulating the long saturated tail probe-by-probe.
		ScanRate: 20000, TickSeconds: 1, MaxSeconds: 300,
		SeedHosts: 5, Seed: 3, StopWhenInfected: 480,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FractionInfected(); got < 0.95 {
		t.Errorf("final infected fraction = %.3f, want ≥0.95", got)
	}
	// Monotone, bounded series.
	prev := 0
	for _, ti := range res.Series {
		if ti.Infected < prev || ti.Infected > pop.Size() {
			t.Fatalf("non-monotone or out-of-range infected count %d", ti.Infected)
		}
		prev = ti.Infected
	}
	// Every infected host has a non-negative infection time.
	n := 0
	for _, it := range res.InfectionTime {
		if it >= 0 {
			n++
		}
	}
	if n != res.Final.Infected {
		t.Errorf("infection times recorded for %d hosts, want %d", n, res.Final.Infected)
	}
}

func TestExactOnTickEarlyStop(t *testing.T) {
	pop := smallPop(t, 100, 4)
	ticks := 0
	_, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 1, TickSeconds: 1, MaxSeconds: 100, SeedHosts: 1, Seed: 1,
		OnTick: func(TickInfo) bool { ticks++; return ticks < 7 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 7 {
		t.Errorf("ran %d ticks, want 7", ticks)
	}
}

func TestExactSensorsSeeProbes(t *testing.T) {
	pop := smallPop(t, 200, 5)
	fleet, err := detect.NewThresholdFleet(
		[]ipv4.Prefix{ipv4.MustParsePrefix("200.1.2.0/24")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var probes int
	_, err = RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 1000, TickSeconds: 1, MaxSeconds: 30, SeedHosts: 10, Seed: 6,
		OnProbe: func(src, dst ipv4.Addr) {
			probes++
			fleet.RecordHit(dst)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("no probes observed")
	}
	// A /24 out of 2^32 at ≥10 hosts × 1000 probes/s × 30 s ≈ 300k probes:
	// expected hits ≈ 300k·2^-24 ≈ 0.018 — usually zero, but the fleet
	// machinery must at least have seen the full probe stream.
	if fleet.TouchedFraction() > 0 && fleet.NumAlerted() > fleet.Size() {
		t.Error("impossible alert accounting")
	}
}

func TestExactNATReachability(t *testing.T) {
	// With every host NAT'd in one site and a local-preference-free
	// scanner, infections can only occur via private-space probes from
	// sitemates; a uniform scanner essentially never probes 192.168/16
	// (2^16/2^32 of its draws), so the epidemic must stall at the seeds.
	pop := smallPop(t, 100, 7)
	if err := pop.AssignNAT(1.0, 100, 1); err != nil {
		t.Fatal(err)
	}
	res, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.UniformFactory{},
		ScanRate: 100, TickSeconds: 1, MaxSeconds: 50, SeedHosts: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Infected > 5 {
		t.Errorf("NAT'd population reached %d infections under uniform scanning", res.Final.Infected)
	}
}

func TestExactEnvironmentHardBlock(t *testing.T) {
	pop := smallPop(t, 300, 9)
	env := &netenv.Environment{}
	// Block everything: no infections beyond seeds can occur.
	env.AddEgressFilter(ipv4.MustParsePrefix("0.0.0.0/0"), 1.0)
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	res, err := RunExact(ExactConfig{
		Pop: pop, Env: env,
		Factory:  worm.HitListFactory{ListSet: ipv4.SetOfPrefixes(list...)},
		ScanRate: 10000, TickSeconds: 1, MaxSeconds: 20, SeedHosts: 5, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Infected != 5 {
		t.Errorf("infections under total block = %d, want 5 (seeds only)", res.Final.Infected)
	}
}

func TestFastConfigValidation(t *testing.T) {
	pop := smallPop(t, 100, 1)
	base := FastConfig{
		Pop: pop, Model: NewUniformModel(),
		ScanRate: 10, TickSeconds: 1, MaxSeconds: 10, SeedHosts: 5, Seed: 1,
	}
	mutations := []struct {
		name string
		mut  func(*FastConfig)
	}{
		{name: "nil-pop", mut: func(c *FastConfig) { c.Pop = nil }},
		{name: "nil-model", mut: func(c *FastConfig) { c.Model = nil }},
		{name: "zero-rate", mut: func(c *FastConfig) { c.ScanRate = 0 }},
		{name: "bad-loss", mut: func(c *FastConfig) { c.LossRate = 1 }},
		{name: "sensors-without-set", mut: func(c *FastConfig) {
			c.Sensors = detect.MustNewThresholdFleet([]ipv4.Prefix{ipv4.MustParsePrefix("1.2.3.0/24")}, 1)
		}},
		{name: "containment-no-trigger", mut: func(c *FastConfig) {
			c.Containment = &Containment{Drop: 0.5}
		}},
		{name: "containment-bad-drop", mut: func(c *FastConfig) {
			c.Containment = &Containment{Trigger: func() bool { return false }, Drop: 2}
		}},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := RunFast(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// epidemicHalfTime runs a driver and returns the time to 50% infected.
func epidemicHalfTime(t *testing.T, run func(seed uint64) *Result, seeds int) float64 {
	t.Helper()
	var sum float64
	var n int
	for s := 0; s < seeds; s++ {
		res := run(uint64(s) + 1)
		if tt, ok := res.TimeToFraction(0.5); ok {
			sum += tt
			n++
		}
	}
	if n == 0 {
		t.Fatal("epidemic never reached 50%")
	}
	return sum / float64(n)
}

func TestFastMatchesExactHitListDynamics(t *testing.T) {
	// The load-bearing equivalence test: the fast (binomial/Poisson)
	// driver must reproduce the exact driver's epidemic curve for a
	// memoryless scanner, within sampling noise.
	pop := smallPop(t, 400, 11)
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	set := ipv4.SetOfPrefixes(list...)

	// Stop shortly past the half-infection mark: only the growth phase is
	// compared, and the exact driver's saturated tail is expensive.
	stop := pop.Size() * 6 / 10
	exact := func(seed uint64) *Result {
		res, err := RunExact(ExactConfig{
			Pop: pop, Factory: worm.HitListFactory{ListSet: set},
			ScanRate: 4000, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 5, Seed: seed,
			StopWhenInfected: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := func(seed uint64) *Result {
		res, err := RunFast(FastConfig{
			Pop: pop, Model: &HitListModel{List: set},
			ScanRate: 4000, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 5, Seed: seed,
			StopWhenInfected: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	te := epidemicHalfTime(t, exact, 6)
	tf := epidemicHalfTime(t, fast, 6)
	if ratio := te / tf; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("half-infection time exact=%.1fs fast=%.1fs (ratio %.2f), want ≈1", te, tf, ratio)
	}
}

func TestFastSensorRatesMatchExact(t *testing.T) {
	// Sensor hit counts per probe must agree between drivers for a fixed
	// infected population (no growth: scanners target empty space).
	fleetPrefixes := []ipv4.Prefix{
		ipv4.MustParsePrefix("200.1.2.0/24"),
		ipv4.MustParsePrefix("200.9.0.0/20"),
	}
	pop := smallPop(t, 50, 13)
	set := ipv4.SetOfPrefixes(ipv4.MustParsePrefix("200.0.0.0/8"))

	exactFleet := detect.MustNewThresholdFleet(fleetPrefixes, 1)
	_, err := RunExact(ExactConfig{
		Pop: pop, Factory: worm.HitListFactory{ListSet: set},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 50, SeedHosts: 50, Seed: 14,
		OnProbe: func(_, dst ipv4.Addr) { exactFleet.RecordHit(dst) },
	})
	if err != nil {
		t.Fatal(err)
	}

	fastFleet := detect.MustNewThresholdFleet(fleetPrefixes, 1)
	_, err = RunFast(FastConfig{
		Pop: pop, Model: &HitListModel{List: set},
		ScanRate: 2000, TickSeconds: 1, MaxSeconds: 50, SeedHosts: 50, Seed: 15,
		Sensors: fastFleet, SensorSet: fastFleet.Union(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Expected hits: 50 hosts × 2000 probes × 50 s × (4352/2^24) ≈ 1296.
	eh := float64(exactFleet.TotalHits())
	fh := float64(fastFleet.TotalHits())
	if eh == 0 || fh == 0 {
		t.Fatalf("no sensor hits (exact %v fast %v)", eh, fh)
	}
	if r := eh / fh; r < 0.85 || r > 1.18 {
		t.Errorf("sensor hits exact=%v fast=%v (ratio %.2f), want ≈1", eh, fh, r)
	}
	want := 50.0 * 2000 * 50 * 4352 / (1 << 24)
	if math.Abs(eh-want)/want > 0.15 {
		t.Errorf("exact sensor hits = %v, want ≈%v", eh, want)
	}
}

func TestFastCodeRedIINATLeakInfectsPublic192(t *testing.T) {
	// NAT'd CRII hosts must be able to infect public hosts in 192/8 via
	// the /8 leak, and sitemates via the private /16, but the epidemic
	// must not leak *into* NAT'd hosts from public space.
	pop := smallPop(t, 2000, 17)
	if err := pop.AssignNAT(0.3, 5, 3); err != nil {
		t.Fatal(err)
	}
	res, err := RunFast(FastConfig{
		Pop: pop, Model: NewCodeRedIIModel(),
		ScanRate: 50000, TickSeconds: 1, MaxSeconds: 400, SeedHosts: 25, Seed: 18,
		StopWhenInfected: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Infected <= 25 {
		t.Fatalf("CRII epidemic never grew (infected=%d)", res.Final.Infected)
	}
	// NAT'd hosts other than seeds can only be infected by sitemates.
	var natInfected int
	for i, it := range res.InfectionTime {
		if it > 0 && pop.Host(i).IsNATed() {
			natInfected++
		}
	}
	// Some sites should have seen secondary infection if any site had a
	// seeded member; this is stochastic, so only sanity-bound it.
	if natInfected > pop.Size() {
		t.Fatal("impossible NAT infection count")
	}
}

func TestFastDeterminism(t *testing.T) {
	// The CRII model produces many per-/16 groups: this exercises the
	// ordered group processing (map-ordered iteration once made same-seed
	// multi-group runs diverge).
	pop := smallPop(t, 2000, 19)
	if err := pop.AssignNAT(0.2, 5, 3); err != nil {
		t.Fatal(err)
	}
	run := func(model RateModel) *Result {
		res, err := RunFast(FastConfig{
			Pop: pop, Model: model,
			ScanRate: 5000, TickSeconds: 1, MaxSeconds: 300, SeedHosts: 10, Seed: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, model := range []RateModel{NewUniformModel(), NewCodeRedIIModel()} {
		a, b := run(model), run(model)
		if len(a.Series) != len(b.Series) {
			t.Fatalf("%s: series lengths differ", model.Name())
		}
		for i := range a.Series {
			if a.Series[i] != b.Series[i] {
				t.Fatalf("%s: same-seed fast runs diverged at tick %d", model.Name(), i)
			}
		}
		for i := range a.InfectionTime {
			if a.InfectionTime[i] != b.InfectionTime[i] {
				t.Fatalf("%s: infection times diverged for host %d", model.Name(), i)
			}
		}
	}
}

func TestFastBlockedDstPreventsInfection(t *testing.T) {
	pop := smallPop(t, 300, 21)
	blocked := ipv4.NewSet(ipv4.Interval{Lo: 0, Hi: ipv4.MaxAddr})
	res, err := RunFast(FastConfig{
		Pop: pop, Model: NewUniformModel(),
		ScanRate: 100000, TickSeconds: 1, MaxSeconds: 50, SeedHosts: 5, Seed: 22,
		BlockedDst: blocked,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Infected != 5 {
		t.Errorf("infected = %d under total block, want 5", res.Final.Infected)
	}
}

func TestFastContainmentSlowsEpidemic(t *testing.T) {
	pop := smallPop(t, 600, 23)
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	set := ipv4.SetOfPrefixes(list...)
	base := FastConfig{
		Pop: pop, Model: &HitListModel{List: set},
		ScanRate: 800, TickSeconds: 1, MaxSeconds: 200, SeedHosts: 5, Seed: 24,
	}

	free, err := RunFast(base)
	if err != nil {
		t.Fatal(err)
	}

	contained := base
	ticks := 0
	policy := &Containment{
		Trigger: func() bool { ticks++; return ticks >= 10 },
		Drop:    0.97,
	}
	contained.Containment = policy
	throttled, err := RunFast(contained)
	if err != nil {
		t.Fatal(err)
	}
	if !policy.Engaged() || policy.EngagedAt != 10 {
		t.Fatalf("containment engaged=%v at %v, want true at t=10", policy.Engaged(), policy.EngagedAt)
	}
	if throttled.Final.Infected >= free.Final.Infected {
		t.Errorf("containment did not slow the epidemic: %d vs %d infected",
			throttled.Final.Infected, free.Final.Infected)
	}
}

// TestFastContainmentPolicyReuse runs one Containment policy twice. The
// engaged latch belongs to a run, so the second run must engage at the
// same tick and produce the same series as the first, instead of
// inheriting the first run's latch and never containing anything.
func TestFastContainmentPolicyReuse(t *testing.T) {
	pop := smallPop(t, 600, 23)
	list, _ := worm.BuildGreedySlash16HitList(pop.Addrs(false), 24)
	clock := &obs.SimClock{}
	policy := &Containment{
		Trigger: func() bool { return clock.Seconds() >= 10 },
		Drop:    0.97,
	}
	cfg := FastConfig{
		Pop: pop, Model: &HitListModel{List: ipv4.SetOfPrefixes(list...)},
		ScanRate: 800, TickSeconds: 1, MaxSeconds: 200, SeedHosts: 5, Seed: 24,
		Clock: clock, Containment: policy,
	}
	first, err := RunFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstAt := policy.EngagedAt
	second, err := RunFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !policy.Engaged() || firstAt != 10 || policy.EngagedAt != firstAt {
		t.Fatalf("engaged at t=%v then t=%v, want t=10 both times", firstAt, policy.EngagedAt)
	}
	if !reflect.DeepEqual(first.Series, second.Series) {
		t.Errorf("reused policy changed the run: %d then %d infected", first.Final.Infected, second.Final.Infected)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Series: []TickInfo{
			{Time: 1, Infected: 10},
			{Time: 2, Infected: 50},
			{Time: 3, Infected: 90},
		},
		Final:         TickInfo{Time: 3, Infected: 90},
		InfectionTime: make([]float64, 100),
	}
	if got := r.FractionInfected(); got != 0.9 {
		t.Errorf("FractionInfected = %v, want 0.9", got)
	}
	tt, ok := r.TimeToFraction(0.5)
	if !ok || tt != 2 {
		t.Errorf("TimeToFraction(0.5) = %v,%v, want 2,true", tt, ok)
	}
	if _, ok := r.TimeToFraction(0.95); ok {
		t.Error("TimeToFraction(0.95) should fail")
	}
	empty := &Result{}
	if empty.FractionInfected() != 0 {
		t.Error("empty result fraction non-zero")
	}
}
