package epidemic

import (
	"math"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/worm"
)

func TestNewSIValidation(t *testing.T) {
	if _, err := NewSI(0, 100, 1, 1e9); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewSI(10, 0, 1, 1e9); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := NewSI(10, 100, 0, 1e9); err == nil {
		t.Error("zero seeds accepted")
	}
	if _, err := NewSI(10, 100, 101, 1e9); err == nil {
		t.Error("seeds > population accepted")
	}
	if _, err := NewSI(10, 100, 1, 0); err == nil {
		t.Error("zero space accepted")
	}
}

func TestLogisticMatchesNumericIntegration(t *testing.T) {
	m, err := NewSI(10, 100000, 25, float64(uint64(1)<<32))
	if err != nil {
		t.Fatal(err)
	}
	// Euler-integrate the ODE finely and compare against the closed form.
	i := m.I0
	dt := 0.25
	for step := 1; step <= 40000; step++ {
		i += dt * m.Beta * i * (1 - i/m.N)
		tt := float64(step) * dt
		want := m.Infected(tt)
		if math.Abs(i-want) > 0.01*m.N {
			t.Fatalf("t=%.1f: numeric %0.f vs closed form %.0f", tt, i, want)
		}
	}
}

func TestLogisticEndpoints(t *testing.T) {
	m, err := NewSI(10, 1000, 10, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Infected(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("I(0) = %v, want 10", got)
	}
	if got := m.Infected(1e9); math.Abs(got-1000) > 1e-6 {
		t.Errorf("I(∞) = %v, want 1000", got)
	}
	saturated := SI{N: 100, I0: 100, Beta: 1}
	if got := saturated.Infected(5); got != 100 {
		t.Errorf("saturated I(t) = %v", got)
	}
}

func TestTimeToFractionInvertsInfected(t *testing.T) {
	m, err := NewSI(10, 134586, 25, float64(uint64(1)<<32))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.1, 0.5, 0.9} {
		tt, err := m.TimeToFraction(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Infected(tt) / m.N; math.Abs(got-f) > 1e-9 {
			t.Errorf("I(T(%v))/N = %v", f, got)
		}
	}
	if _, err := m.TimeToFraction(0); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := m.TimeToFraction(1); err == nil {
		t.Error("fraction 1 accepted")
	}
	if tt, err := m.TimeToFraction(25.0 / 2 / 134586); err != nil || tt != 0 {
		t.Errorf("below-I0 fraction: %v, %v", tt, err)
	}
}

func TestFitBetaRecoversTruth(t *testing.T) {
	m, err := NewSI(10, 50000, 25, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	var times, infected []float64
	for tt := 0.0; tt < 30000; tt += 50 {
		times = append(times, tt)
		infected = append(infected, m.Infected(tt))
	}
	beta, n, err := FitBeta(times, infected, m.N)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Errorf("fit used only %d points", n)
	}
	if math.Abs(beta-m.Beta)/m.Beta > 0.01 {
		t.Errorf("fitted beta %v, want %v", beta, m.Beta)
	}
}

func TestFitBetaErrors(t *testing.T) {
	if _, _, err := FitBeta([]float64{1}, []float64{1, 2}, 10); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := FitBeta([]float64{1, 2}, []float64{0, 0}, 10); err == nil {
		t.Error("uninformative series accepted")
	}
}

// TestFitBetaRejectsHostileInputs is the regression for the silent-garbage
// bug: a non-positive or non-finite population, or a NaN/Inf anywhere in
// the series, used to flow into the regression sums and come back as a
// garbage β with a nil error. All must now fail loudly.
func TestFitBetaRejectsHostileInputs(t *testing.T) {
	good := func() (times, infected []float64) {
		m := SI{N: 1000, I0: 10, Beta: 0.01}
		for tt := 0.0; tt < 1000; tt += 10 {
			times = append(times, tt)
			infected = append(infected, m.Infected(tt))
		}
		return
	}
	times, infected := good()
	cases := []struct {
		name string
		mut  func(times, infected []float64) (t, i []float64, pop float64)
	}{
		{"zero-population", func(t, i []float64) ([]float64, []float64, float64) { return t, i, 0 }},
		{"negative-population", func(t, i []float64) ([]float64, []float64, float64) { return t, i, -5 }},
		{"nan-population", func(t, i []float64) ([]float64, []float64, float64) { return t, i, math.NaN() }},
		{"inf-population", func(t, i []float64) ([]float64, []float64, float64) { return t, i, math.Inf(1) }},
		{"nan-time", func(t, i []float64) ([]float64, []float64, float64) { t[3] = math.NaN(); return t, i, 1000 }},
		{"inf-time", func(t, i []float64) ([]float64, []float64, float64) { t[3] = math.Inf(-1); return t, i, 1000 }},
		{"nan-infected", func(t, i []float64) ([]float64, []float64, float64) { i[40] = math.NaN(); return t, i, 1000 }},
		{"inf-infected", func(t, i []float64) ([]float64, []float64, float64) { i[40] = math.Inf(1); return t, i, 1000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := append([]float64(nil), times...)
			is := append([]float64(nil), infected...)
			mt, mi, pop := tc.mut(ts, is)
			beta, _, err := FitBeta(mt, mi, pop)
			if err == nil {
				t.Fatalf("hostile input accepted, returned β=%v", beta)
			}
		})
	}
	// The validated path must still fit clean data.
	if _, _, err := FitBeta(times, infected, 1000); err != nil {
		t.Fatalf("clean series rejected: %v", err)
	}
}

// TestSIRoundTripProperty: Infected(TimeToFraction(f)) must return f·N
// across the fraction range and across β regimes spanning slow enterprise
// worms to Slammer-class outbreaks, and with seed counts from 1 to half
// the population.
func TestSIRoundTripProperty(t *testing.T) {
	models := []SI{
		{N: 1000, I0: 1, Beta: 1e-4},
		{N: 1000, I0: 10, Beta: 0.01},
		{N: 134586, I0: 25, Beta: 0.00074}, // ≈ the paper's CodeRedII pressure
		{N: 75000, I0: 100, Beta: 7},       // Slammer-class
		{N: 500, I0: 250, Beta: 0.5},       // half the population already infected
	}
	fractions := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	for _, m := range models {
		for _, f := range fractions {
			tt, err := m.TimeToFraction(f)
			if err != nil {
				t.Fatalf("N=%v β=%v f=%v: %v", m.N, m.Beta, f, err)
			}
			got := m.Infected(tt) / m.N
			if f*m.N <= m.I0 {
				// Below the initial seeding the inversion clamps to t=0.
				if tt != 0 {
					t.Errorf("N=%v β=%v f=%v below I0: t=%v, want 0", m.N, m.Beta, f, tt)
				}
				continue
			}
			if math.Abs(got-f) > 1e-9 {
				t.Errorf("N=%v β=%v: I(T(%v))/N = %v", m.N, m.Beta, f, got)
			}
		}
	}
}

// TestDoublingTimeMatchesEarlyCurve: while I ≪ N the epidemic is
// exponential, so the curve must double every ln2/β seconds (to first
// order in I/N) across β regimes.
func TestDoublingTimeMatchesEarlyCurve(t *testing.T) {
	for _, m := range []SI{
		{N: 1e6, I0: 1, Beta: 1e-3},
		{N: 1e6, I0: 25, Beta: 0.05},
		{N: 134586 * 100, I0: 25, Beta: 0.74},
	} {
		td := math.Ln2 / m.Beta
		// Check doubling over the first few periods, stopping while the
		// curve is still deep in the exponential phase (I < 1% of N).
		for k := 0; k < 5; k++ {
			t0 := float64(k) * td
			i0, i1 := m.Infected(t0), m.Infected(t0+td)
			if i1/m.N > 0.01 {
				break
			}
			if r := i1 / i0; math.Abs(r-2) > 0.02 {
				t.Errorf("β=%v: I(%v+Td)/I(%v) = %v, want ≈2", m.Beta, t0, t0, r)
			}
		}
	}
}

// TestSimulationMatchesLogistic is the oracle test: the fast driver's
// uniform-scanner epidemic must track the closed-form logistic solution.
func TestSimulationMatchesLogistic(t *testing.T) {
	pop, err := population.Synthesize(population.Config{
		Size: 20000, Slash8s: 20, Slash16s: 400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 2000
	res, err := sim.RunFast(sim.FastConfig{
		Pop:              pop,
		Model:            sim.NewUniformModel(),
		ScanRate:         rate,
		TickSeconds:      1,
		MaxSeconds:       12000,
		SeedHosts:        25,
		Seed:             3,
		StopWhenInfected: 19000,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewSI(rate, pop.Size(), 25, float64(uint64(1)<<32))
	if err != nil {
		t.Fatal(err)
	}
	// Compare times-to-fraction: stochastic takeoff jitters the early
	// phase, so compare the 10→90% growth duration, which is seed-free.
	sim10, ok1 := resTime(res, 0.1)
	sim90, ok2 := resTime(res, 0.9)
	if !ok1 || !ok2 {
		t.Fatalf("simulation never reached 90%% (final %d)", res.Final.Infected)
	}
	ana10, _ := model.TimeToFraction(0.1)
	ana90, _ := model.TimeToFraction(0.9)
	simGrowth := sim90 - sim10
	anaGrowth := ana90 - ana10
	if r := simGrowth / anaGrowth; r < 0.85 || r > 1.18 {
		t.Errorf("10%%→90%% growth: simulated %.0fs vs logistic %.0fs (ratio %.2f)",
			simGrowth, anaGrowth, r)
	}

	// And the fitted beta must recover the configured pressure.
	var times, infected []float64
	for _, ti := range res.Series {
		times = append(times, ti.Time)
		infected = append(infected, float64(ti.Infected))
	}
	beta, _, err := FitBeta(times, infected, float64(pop.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if r := beta / model.Beta; r < 0.85 || r > 1.18 {
		t.Errorf("fitted beta %v vs configured %v (ratio %.2f)", beta, model.Beta, r)
	}
}

func resTime(res *sim.Result, f float64) (float64, bool) {
	return res.TimeToFraction(f)
}

// TestHitListEpidemicMatchesReducedSpace verifies the paper's Fig 5a logic
// analytically: a hit-list worm is the same epidemic with Ω shrunk to the
// list size, so its growth must match the logistic model over that space.
func TestHitListEpidemicMatchesReducedSpace(t *testing.T) {
	pop, err := population.Synthesize(population.Config{
		Size: 20000, Slash8s: 20, Slash16s: 400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefixes, cover := worm.BuildGreedySlash16HitList(pop.Addrs(false), 400)
	if cover != 1 {
		t.Fatalf("full list covers %v", cover)
	}
	set := ipv4.SetOfPrefixes(prefixes...)
	const rate = 40
	res, err := sim.RunFast(sim.FastConfig{
		Pop:              pop,
		Model:            &sim.HitListModel{List: set},
		ScanRate:         rate,
		TickSeconds:      1,
		MaxSeconds:       20000,
		SeedHosts:        25,
		Seed:             5,
		StopWhenInfected: 19000,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewSI(rate, pop.Size(), 25, float64(set.Size()))
	if err != nil {
		t.Fatal(err)
	}
	sim10, ok1 := res.TimeToFraction(0.1)
	sim90, ok2 := res.TimeToFraction(0.9)
	if !ok1 || !ok2 {
		t.Fatalf("hit-list epidemic never matured (final %d)", res.Final.Infected)
	}
	ana10, _ := model.TimeToFraction(0.1)
	ana90, _ := model.TimeToFraction(0.9)
	if r := (sim90 - sim10) / (ana90 - ana10); r < 0.85 || r > 1.18 {
		t.Errorf("hit-list growth ratio %.2f vs reduced-space logistic", r)
	}
}
