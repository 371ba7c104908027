package cycle

import (
	"testing"
	"testing/quick"
)

// slammerIncrements are the three OR-corrupted increments observed in the
// wild (0xffd9613c XOR the sqlsort.dll import-address-table entries); see
// package worm for the derivation. Used here as realistic test vectors.
var slammerIncrements = []uint32{0x88215000, 0x8831fa24, 0x88336870}

const slammerA = 214013

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(214013, 1, 32); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if _, err := NewMap(3, 1, 32); err == nil {
		t.Error("multiplier 3 (≢1 mod 4) accepted")
	}
	if _, err := NewMap(5, 1, 2); err == nil {
		t.Error("bits=2 accepted")
	}
	if _, err := NewMap(5, 1, 33); err == nil {
		t.Error("bits=33 accepted")
	}
}

func TestPeriodMatchesIteration(t *testing.T) {
	// On a small modulus, the closed-form period must equal the length of
	// the actually iterated cycle for every state.
	m := MustNewMap(slammerA, 0x5000&0xffff, 16)
	for x := uint32(0); x < 1<<16; x++ {
		want := iteratedPeriod(m, x)
		if got := m.Period(x); got != want {
			t.Fatalf("Period(%#x) = %d, want %d (v2d=%d)", x, got, want, m.V2D(x))
		}
	}
}

func iteratedPeriod(m Map, x uint32) uint64 {
	cur := m.Step(x)
	var n uint64 = 1
	for cur != x {
		cur = m.Step(cur)
		n++
	}
	return n
}

func TestPeriodMatchesIterationQuick(t *testing.T) {
	// Random (a, b) pairs with a ≡ 1 (mod 4) at modulus 2^14.
	f := func(rawA, rawB uint32, rawX uint16) bool {
		a := rawA&^3 | 1
		m := MustNewMap(a, rawB, 14)
		x := uint32(rawX) & m.mask()
		return m.Period(x) == iteratedPeriod(m, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCensusAgainstBruteForce(t *testing.T) {
	tests := []struct {
		name string
		a, b uint32
		bits uint
	}{
		{name: "slammer-like-4divB", a: slammerA, b: 0x5000, bits: 16},
		{name: "b-odd-full-period", a: slammerA, b: 0xffd9613c, bits: 16},
		{name: "b-twice-odd", a: slammerA, b: 2, bits: 16},
		{name: "b-zero", a: slammerA, b: 0, bits: 14},
		{name: "a-1-translation", a: 1, b: 12, bits: 12},
		{name: "a-1-b0-identity", a: 1, b: 0, bits: 10},
		{name: "alpha-3", a: 9, b: 0x50, bits: 14},
		{name: "msvcrt", a: 214013, b: 2531011, bits: 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := MustNewMap(tt.a, tt.b, tt.bits)
			want := m.BruteForceCensus()
			got := make(map[uint64]uint64)
			var states uint64
			for _, c := range m.Census() {
				got[c.Length] += c.Cycles
				states += c.States
			}
			if states != 1<<tt.bits {
				t.Fatalf("census covers %d states, want %d", states, uint64(1)<<tt.bits)
			}
			if len(got) != len(want) {
				t.Fatalf("census lengths = %v, want %v", got, want)
			}
			for length, cycles := range want {
				if got[length] != cycles {
					t.Errorf("length %d: %d cycles, want %d", length, got[length], cycles)
				}
			}
		})
	}
}

func TestSlammerFullSizeCensus(t *testing.T) {
	// The paper: "there are 64 cycles for each b value" with "seven cycles
	// having a period of only one" for the real 32-bit Slammer LCG. Our
	// closed form gives exactly 64 cycles; the graded structure puts 4
	// states in fixed points (the idealized affine model's count).
	for _, b := range slammerIncrements {
		m := MustNewMap(slammerA, b, 32)
		if got := m.TotalCycles(); got != 64 {
			t.Errorf("b=%#x: TotalCycles() = %d, want 64", b, got)
		}
		census := m.Census()
		if census[0].Length != 1<<30 || census[0].Cycles != 2 {
			t.Errorf("b=%#x: longest class = %+v, want 2 cycles of 2^30", b, census[0])
		}
		last := census[len(census)-1]
		if last.Length != 1 || last.Cycles != 4 {
			t.Errorf("b=%#x: fixed-point class = %+v, want 4 cycles of length 1", b, last)
		}
		var states uint64
		for _, c := range census {
			states += c.States
		}
		if states != 1<<32 {
			t.Errorf("b=%#x: census covers %d states", b, states)
		}
	}
}

func TestOddIncrementIsFullPeriod(t *testing.T) {
	// The ablation baseline: an odd increment (e.g. MSVCRT's 2531011) gives
	// the classical single full-period cycle and no hotspot structure.
	m := MustNewMap(slammerA, 2531011, 32)
	census := m.Census()
	if len(census) != 1 || census[0].Length != 1<<32 || census[0].Cycles != 1 {
		t.Errorf("census = %+v, want single cycle of 2^32", census)
	}
}

func TestIntendedIncrementIsAlsoFlawed(t *testing.T) {
	// A finding of this reproduction: the increment the paper says the
	// author "may have intended" (0xffd9613c) is even with v2 = 2, so under
	// the affine model it produces the same 64-cycle structure as the
	// corrupted values — the OR bug made the flaw worse, but the intended
	// constant was never a full-period increment either.
	m := MustNewMap(slammerA, 0xffd9613c, 32)
	if got := m.TotalCycles(); got != 64 {
		t.Errorf("TotalCycles() = %d, want 64", got)
	}
}

func TestStatesWithPeriodAtMostExact(t *testing.T) {
	m := MustNewMap(slammerA, 0x5000, 16)
	for _, maxLen := range []uint64{1, 2, 8, 64, 1 << 10, 1 << 16} {
		want := make(map[uint32]bool)
		for x := uint32(0); x < 1<<16; x++ {
			if m.Period(x) <= maxLen {
				want[x] = true
			}
		}
		prog, ok := m.StatesWithPeriodAtMost(maxLen)
		if len(want) == 0 {
			if ok {
				t.Errorf("maxLen=%d: got progression, want none", maxLen)
			}
			continue
		}
		if !ok {
			t.Fatalf("maxLen=%d: no progression, want %d states", maxLen, len(want))
		}
		if prog.Count != uint64(len(want)) {
			t.Fatalf("maxLen=%d: count=%d, want %d", maxLen, prog.Count, len(want))
		}
		for i := uint64(0); i < prog.Count; i++ {
			x := prog.Nth(i) & m.mask()
			if !want[x] {
				t.Fatalf("maxLen=%d: progression member %#x has period %d", maxLen, x, m.Period(x))
			}
		}
	}
}

func TestForEachShortCycleCoversAllShortStates(t *testing.T) {
	m := MustNewMap(slammerA, 0x5000, 16)
	const maxLen = 1 << 8
	covered := make(map[uint32]bool)
	var cycles int
	m.ForEachShortCycle(maxLen, func(start uint32, length uint64) {
		cycles++
		if got := m.Period(start); got != length {
			t.Fatalf("cycle start %#x: length %d, want %d", start, length, got)
		}
		cur := start
		for i := uint64(0); i < length; i++ {
			if covered[cur] {
				t.Fatalf("state %#x visited twice", cur)
			}
			covered[cur] = true
			cur = m.Step(cur)
		}
		if cur != start {
			t.Fatalf("cycle from %#x did not close", start)
		}
	})
	var want int
	for x := uint32(0); x < 1<<16; x++ {
		if m.Period(x) <= maxLen {
			want++
		}
	}
	if len(covered) != want {
		t.Errorf("covered %d short states, want %d (in %d cycles)", len(covered), want, cycles)
	}
}

func TestProgressionNthWraps(t *testing.T) {
	p := Progression{Start: 0xfffffff0, Step: 8, Count: 4}
	want := p.Start // wraps modulo 2^32
	want += 24
	if got := p.Nth(3); got != want {
		t.Errorf("Nth(3) = %#x, want %#x", got, want)
	}
}

func TestBruteForceCensusRefusesLargeModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bits > 24")
		}
	}()
	MustNewMap(slammerA, 1, 32).BruteForceCensus()
}

func TestModInversePow2(t *testing.T) {
	for _, u := range []uint32{1, 3, 53503, 0xdeadbeef | 1, 0xffffffff} {
		for _, n := range []uint{1, 2, 8, 16, 30, 32} {
			inv := modInversePow2(u, n)
			if got := (u * inv) & lowMask(n); got != 1&lowMask(n) {
				t.Errorf("u=%#x n=%d: u·inv = %#x, want 1", u, n, got)
			}
		}
	}
}
