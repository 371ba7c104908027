package sim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestCutShardsProperties pins the phase-1 shard cut's contract on the λ
// shapes the driver meets: no groups, all-quiescent groups (reachable with
// DisableTickSkip), the infection-ordered front-loaded skew of a real
// outbreak, and one group holding more than a shard's share.
func TestCutShardsProperties(t *testing.T) {
	r := rng.NewXoshiro(7)
	random := make([]float64, 500)
	for i := range random {
		random[i] = r.Float64() * 10
	}
	frontLoaded := make([]float64, 300)
	for i := range frontLoaded {
		frontLoaded[i] = 1e6 * math.Pow(0.9, float64(i))
	}
	cases := map[string][]float64{
		"empty":        nil,
		"one group":    {3},
		"all zero":     make([]float64, 40),
		"front loaded": frontLoaded,
		"one heavy":    {1, 2, 1, 500, 1, 3, 0, 2, 1, 1},
		"heavy last":   {0, 0, 1, 1, 1, 90},
		"zeros around": {0, 0, 0, 5, 0, 0, 5, 0, 0, 0},
		"random":       random,
	}
	// One bounds slice serves every call, as in the driver, so a refill
	// that kept cuts from a wider previous call would show.
	var bounds []int
	for name, lam := range cases {
		var total, maxLam float64
		for _, l := range lam {
			total += l
			maxLam = max(maxLam, l)
		}
		for _, n := range []int{2, 3, 8} {
			bounds = cutShards(bounds, lam, total, n)
			if len(bounds) != n+1 || bounds[0] != 0 || bounds[n] != len(lam) {
				t.Fatalf("%s, %d shards: bounds %v, want %d cuts from 0 to %d", name, n, bounds, n+1, len(lam))
			}
			for wi := 0; wi < n; wi++ {
				lo, hi := bounds[wi], bounds[wi+1]
				if hi < lo {
					t.Fatalf("%s, %d shards: bounds %v decrease", name, n, bounds)
				}
				var shard float64
				for _, l := range lam[lo:hi] {
					shard += l
				}
				if limit := total/float64(n) + maxLam; shard > limit*(1+1e-12) {
					t.Errorf("%s, %d shards: shard %d [%d, %d) carries λ %v > total/n + max %v",
						name, n, wi, lo, hi, shard, limit)
				}
			}
		}
	}
}

// runFastSkewed drives CodeRedII over a small internet-scale world to half
// prevalence with a flight recorder attached. The run grows to ~70 groups
// with uneven λ: on 110 of its 116 two-shard ticks the equal-λ cut falls
// elsewhere than the equal-count split would.
func runFastSkewed(t *testing.T, pop *population.Population, workers int, noskip bool) string {
	t.Helper()
	rec := trace.NewRecorder(0)
	res, err := RunFast(FastConfig{
		Pop:              pop,
		Model:            NewCodeRedIIModel(),
		ScanRate:         200,
		TickSeconds:      1,
		MaxSeconds:       600,
		SeedHosts:        5,
		Seed:             31,
		Workers:          workers,
		DisableTickSkip:  noskip,
		Trace:            rec,
		StopWhenInfected: pop.Size() / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Infected < pop.Size()/2 {
		t.Fatalf("outbreak stalled at %d/%d", res.Final.Infected, pop.Size())
	}
	return serializeFastRun(t, res, nil, rec)
}

func TestRunFastSkewedWorkersByteIdentical(t *testing.T) {
	pop, err := population.Synthesize(population.InternetScale(50_000, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := runFastSkewed(t, pop, 1, false)
	for _, noskip := range []bool{false, true} {
		for _, workers := range []int{2, 4, 8} {
			if got := runFastSkewed(t, pop, workers, noskip); got != want {
				t.Errorf("Workers=%d DisableTickSkip=%v diverged from Workers=1", workers, noskip)
			}
		}
	}
}

// TestSlotSorterMatchesSlicesSort checks both sides of the radix cutover
// and values near the int32 ceiling, reusing one sorter from a long list
// down to short ones so stale scratch would show.
func TestSlotSorterMatchesSlicesSort(t *testing.T) {
	r := rng.NewXoshiro(11)
	var z slotSorter
	for _, n := range []int{300_000, 65_539, 4096, 4095, 1, 0, 70_000} {
		seen := make(map[int32]bool, n)
		s := make([]int32, 0, n)
		for _, v := range []int32{math.MaxInt32, 0} {
			if len(s) < n {
				seen[v] = true
				s = append(s, v)
			}
		}
		for len(s) < n {
			v := int32(r.Uint64n(math.MaxInt32 + 1))
			if len(s)%5 == 0 {
				v = math.MaxInt32 - int32(r.Uint64n(1<<17))
			}
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		want := slices.Clone(s)
		slices.Sort(want)
		z.sort(s)
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: radix output differs from slices.Sort", n)
		}
	}
}

func TestCheckSlotCeiling(t *testing.T) {
	if err := checkSlotCeiling(math.MaxInt32); err != nil {
		t.Errorf("MaxInt32 hosts rejected: %v", err)
	}
	if err := checkSlotCeiling(math.MaxInt32 + 1); err == nil {
		t.Error("MaxInt32+1 hosts accepted")
	}
}
