package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSVCRTKnownSequence(t *testing.T) {
	// The canonical MSVCRT sequence for srand(1), e.g. as produced by the
	// Visual C runtime that Blaster linked against.
	m := NewMSVCRT(1)
	want := []int{41, 18467, 6334, 26500, 19169, 15724, 11478, 29358, 26962, 24464}
	for i, w := range want {
		if got := m.Rand(); got != w {
			t.Fatalf("rand() #%d = %d, want %d", i, got, w)
		}
	}
}

func TestMSVCRTOutputRange(t *testing.T) {
	f := func(seed uint32) bool {
		m := NewMSVCRT(seed)
		for i := 0; i < 50; i++ {
			v := m.Rand()
			if v < 0 || v > 32767 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLCG32MatchesStep(t *testing.T) {
	f := func(a, b, seed uint32) bool {
		// Force the multiplier odd so the map is a bijection (not required
		// by LCG32 itself, but representative of its use).
		a |= 1
		l := NewLCG32(a, b, seed)
		manual := seed
		for i := 0; i < 20; i++ {
			manual = manual*a + b
			if l.Next() != manual {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := NewXoshiro(7), NewXoshiro(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded generators diverged")
		}
	}
	c := NewXoshiro(8)
	same := 0
	a = NewXoshiro(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestXoshiroUint64nBounds(t *testing.T) {
	x := NewXoshiro(1)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 32, 1<<63 + 5} {
		for i := 0; i < 200; i++ {
			if got := x.Uint64n(n); got >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, got)
			}
		}
	}
}

func TestXoshiroUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro(1).Uint64n(0)
}

func TestXoshiroUniformity(t *testing.T) {
	// Chi-square against uniform over 16 buckets; loose bound to avoid
	// flakiness while still catching gross bias.
	x := NewXoshiro(99)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[x.Uint64n(16)]++
	}
	expected := float64(n) / 16
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; p=0.001 critical value ≈ 37.7.
	if chi2 > 37.7 {
		t.Errorf("chi-square = %.1f, suggests non-uniform Uint64n", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro(5)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	x := NewXoshiro(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := x.Normal(30, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-30) > 0.05 {
		t.Errorf("mean = %v, want ≈30", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v, want ≈4", variance)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	x := NewXoshiro(3)
	for i := 0; i < 100; i++ {
		if x.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !x.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestLCGLowBitStructure(t *testing.T) {
	// The classic power-of-two LCG weakness the cycle analysis builds on:
	// the low k bits of the state evolve with period at most 2^k. For the
	// MSVCRT constants (odd multiplier, odd increment) the lowest bit
	// simply alternates.
	l := NewLCG32(MSVCRTMultiplier, MSVCRTIncrement, 12345)
	prev := l.state & 1
	for i := 0; i < 64; i++ {
		cur := l.Next() & 1
		if cur == prev {
			t.Fatalf("low bit failed to alternate at step %d", i)
		}
		prev = cur
	}
	// Low 4 bits: period divides 16.
	l = NewLCG32(MSVCRTMultiplier, MSVCRTIncrement, 999)
	var seq []uint32
	for i := 0; i < 32; i++ {
		seq = append(seq, l.Next()&0xf)
	}
	for i := 0; i < 16; i++ {
		if seq[i] != seq[i+16] {
			t.Fatalf("low-4-bit sequence not 16-periodic at %d", i)
		}
	}
}

func TestMix64IsInjectiveOnSample(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: %d and %d", prev, i)
		}
		seen[h] = i
	}
}
