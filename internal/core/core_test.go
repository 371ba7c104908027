package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func uniformCounts(n int, perBucket uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = perBucket
	}
	return out
}

func TestChiSquareUniform(t *testing.T) {
	stat, df := ChiSquareUniform(uniformCounts(100, 50))
	if stat != 0 || df != 99 {
		t.Errorf("perfectly uniform: stat=%v df=%d, want 0, 99", stat, df)
	}
	// All mass on one bucket of n: stat = total·(n−1).
	counts := make([]uint64, 10)
	counts[3] = 1000
	stat, _ = ChiSquareUniform(counts)
	if want := 1000.0 * 9; math.Abs(stat-want) > 1e-9 {
		t.Errorf("point mass stat = %v, want %v", stat, want)
	}
	// Degenerate inputs.
	if s, d := ChiSquareUniform(nil); s != 0 || d != 0 {
		t.Error("nil input not degenerate")
	}
	if s, d := ChiSquareUniform(make([]uint64, 5)); s != 0 || d != 4 {
		t.Errorf("all-zero input: %v, %d", s, d)
	}
}

func TestChiSquareSamplingBehaviour(t *testing.T) {
	// Multinomial samples from a uniform distribution should pass
	// IsUniform; a hotspotted distribution should fail decisively.
	r := rng.NewXoshiro(1)
	counts := make([]uint64, 200)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(200)]++
	}
	rep := Analyze(counts)
	if !rep.IsUniform() {
		t.Errorf("uniform sample flagged non-uniform (chi2=%.1f df=%d)", rep.ChiSquare, rep.DF)
	}
	// Inject a hotspot: one bucket gets 10× traffic.
	counts[17] += 5000
	rep = Analyze(counts)
	if rep.IsUniform() {
		t.Errorf("hotspotted sample passed as uniform (chi2=%.1f df=%d)", rep.ChiSquare, rep.DF)
	}
}

func TestKLDivergence(t *testing.T) {
	if got := KLDivergenceFromUniform(uniformCounts(64, 10)); math.Abs(got) > 1e-12 {
		t.Errorf("uniform KL = %v, want 0", got)
	}
	counts := make([]uint64, 64)
	counts[0] = 999
	if got, want := KLDivergenceFromUniform(counts), 6.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("point-mass KL = %v, want log2(64)=%v", got, want)
	}
	if got := KLDivergenceFromUniform(nil); got != 0 {
		t.Errorf("nil KL = %v", got)
	}
}

func TestGini(t *testing.T) {
	if got := Gini(uniformCounts(50, 7)); math.Abs(got) > 1e-9 {
		t.Errorf("uniform Gini = %v, want 0", got)
	}
	counts := make([]uint64, 100)
	counts[99] = 10000
	if got := Gini(counts); got < 0.98 {
		t.Errorf("point-mass Gini = %v, want ≈0.99", got)
	}
	if got := Gini([]uint64{5}); got != 0 {
		t.Errorf("single bucket Gini = %v", got)
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		counts := make([]uint64, len(raw))
		for i, v := range raw {
			counts[i] = uint64(v)
		}
		g := Gini(counts)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadOrders(t *testing.T) {
	if got := SpreadOrders([]uint64{10, 10, 10}); got != 0 {
		t.Errorf("equal counts spread = %v", got)
	}
	if got := SpreadOrders([]uint64{1, 0, 1000}); math.Abs(got-3) > 1e-9 {
		t.Errorf("spread = %v, want 3 orders", got)
	}
	if got := SpreadOrders([]uint64{0, 0}); got != 0 {
		t.Errorf("all-zero spread = %v", got)
	}
}

func TestFindHotspots(t *testing.T) {
	counts := []uint64{10, 12, 9, 11, 500, 10, 0, 95}
	hs := FindHotspots(counts, 5)
	if len(hs) != 2 {
		t.Fatalf("found %d hotspots, want 2: %+v", len(hs), hs)
	}
	if hs[0].Bucket != 4 || hs[1].Bucket != 7 {
		t.Errorf("hotspots = %+v, want buckets 4 then 7", hs)
	}
	if hs[0].Ratio < 40 {
		t.Errorf("dominant hotspot ratio = %v", hs[0].Ratio)
	}
	if got := FindHotspots(make([]uint64, 5), 5); got != nil {
		t.Error("hotspots found in all-zero data")
	}
}

func TestAnalyzeReport(t *testing.T) {
	counts := []uint64{0, 5, 5, 5, 5, 250}
	rep := Analyze(counts)
	if rep.Buckets != 6 || rep.Total != 270 || rep.ZeroBuckets != 1 {
		t.Errorf("report basics wrong: %+v", rep)
	}
	if rep.IsUniform() {
		t.Error("hotspotted report passed as uniform")
	}
	if len(rep.Hotspots) != 1 || rep.Hotspots[0].Bucket != 5 {
		t.Errorf("hotspots = %+v", rep.Hotspots)
	}
	if rep.Gini <= 0.5 {
		t.Errorf("Gini = %v, want > 0.5", rep.Gini)
	}
}
