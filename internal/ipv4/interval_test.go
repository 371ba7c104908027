package ipv4

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if got := iv.Len(); got != 11 {
		t.Errorf("Len() = %d, want 11", got)
	}
	if got := (Interval{Lo: 0, Hi: MaxAddr}).Len(); got != 1<<32 {
		t.Errorf("full-space Len() = %d, want 2^32", got)
	}
	got, ok := iv.Intersect(Interval{Lo: 15, Hi: 40})
	if !ok || got != (Interval{Lo: 15, Hi: 20}) {
		t.Errorf("Intersect = %v,%v", got, ok)
	}
	if _, ok := iv.Intersect(Interval{Lo: 30, Hi: 40}); ok {
		t.Error("disjoint Intersect should report empty")
	}
}

func TestSetMergeAndSize(t *testing.T) {
	s := NewSet(
		Interval{Lo: 10, Hi: 20},
		Interval{Lo: 15, Hi: 25}, // overlapping
		Interval{Lo: 26, Hi: 30}, // adjacent
		Interval{Lo: 100, Hi: 100},
	)
	if got := s.Size(); got != 22 {
		t.Fatalf("Size() = %d, want 22", got)
	}
	ivs := s.Intervals()
	if len(ivs) != 2 || ivs[0] != (Interval{Lo: 10, Hi: 30}) || ivs[1] != (Interval{Lo: 100, Hi: 100}) {
		t.Fatalf("Intervals() = %v", ivs)
	}
}

func TestSetContains(t *testing.T) {
	s := SetOfPrefixes(MustParsePrefix("10.0.0.0/8"), MustParsePrefix("192.168.0.0/16"))
	for _, give := range []string{"10.0.0.0", "10.255.255.255", "192.168.3.4"} {
		if !s.Contains(MustParseAddr(give)) {
			t.Errorf("Contains(%s) = false, want true", give)
		}
	}
	for _, give := range []string{"9.255.255.255", "11.0.0.0", "192.169.0.0"} {
		if s.Contains(MustParseAddr(give)) {
			t.Errorf("Contains(%s) = true, want false", give)
		}
	}
}

func TestSetSelectRank(t *testing.T) {
	s := NewSet(Interval{Lo: 10, Hi: 12}, Interval{Lo: 100, Hi: 101})
	wantOrder := []Addr{10, 11, 12, 100, 101}
	for i, want := range wantOrder {
		if got := s.Select(uint64(i)); got != want {
			t.Errorf("Select(%d) = %v, want %v", i, got, want)
		}
	}
	if got := s.Rank(11); got != 1 {
		t.Errorf("Rank(11) = %d, want 1", got)
	}
	if got := s.Rank(50); got != 3 {
		t.Errorf("Rank(50) = %d, want 3", got)
	}
	if got := s.Rank(200); got != 5 {
		t.Errorf("Rank(200) = %d, want 5", got)
	}
}

func TestSetIntersectInterval(t *testing.T) {
	s := NewSet(Interval{Lo: 10, Hi: 20}, Interval{Lo: 30, Hi: 40})
	tests := []struct {
		give Interval
		want uint64
	}{
		{give: Interval{Lo: 0, Hi: 5}, want: 0},
		{give: Interval{Lo: 0, Hi: 10}, want: 1},
		{give: Interval{Lo: 15, Hi: 35}, want: 12},
		{give: Interval{Lo: 0, Hi: MaxAddr}, want: 22},
		{give: Interval{Lo: 20, Hi: 30}, want: 2},
	}
	for _, tt := range tests {
		if got := s.IntersectInterval(tt.give); got != tt.want {
			t.Errorf("IntersectInterval(%v) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

// refSet is a brute-force model of Set over a tiny universe, used as the
// oracle for property tests of the set algebra.
type refSet map[Addr]bool

func randomSmallSet(r *rng.Xoshiro) (*Set, refSet) {
	s := &Set{}
	ref := make(refSet)
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		lo := Addr(r.Intn(64))
		hi := lo + Addr(r.Intn(16))
		s.AddInterval(Interval{Lo: lo, Hi: hi})
		for a := lo; ; a++ {
			ref[a] = true
			if a == hi {
				break
			}
		}
	}
	return s, ref
}

func TestSetAlgebraAgainstOracle(t *testing.T) {
	r := rng.NewXoshiro(42)
	for trial := 0; trial < 500; trial++ {
		a, refA := randomSmallSet(r)
		b, refB := randomSmallSet(r)

		inter := a.Intersect(b)
		diff := a.Subtract(b)

		for addr := Addr(0); addr < 96; addr++ {
			inA, inB := refA[addr], refB[addr]
			if got, want := inter.Contains(addr), inA && inB; got != want {
				t.Fatalf("trial %d: inter.Contains(%d) = %v, want %v (a=%v b=%v)", trial, addr, got, want, a, b)
			}
			if got, want := diff.Contains(addr), inA && !inB; got != want {
				t.Fatalf("trial %d: diff.Contains(%d) = %v, want %v (a=%v b=%v)", trial, addr, got, want, a, b)
			}
		}

		// Size is consistent with membership.
		var wantInter, wantDiff uint64
		for addr := range refA {
			if refB[addr] {
				wantInter++
			} else {
				wantDiff++
			}
		}
		if got := inter.Size(); got != wantInter {
			t.Fatalf("trial %d: inter.Size() = %d, want %d", trial, got, wantInter)
		}
		if got := diff.Size(); got != wantDiff {
			t.Fatalf("trial %d: diff.Size() = %d, want %d", trial, got, wantDiff)
		}
	}
}

func TestSetSelectIsOrderedBijection(t *testing.T) {
	f := func(rawLos [4]uint16, rawLens [4]uint8) bool {
		s := &Set{}
		for i := range rawLos {
			lo := Addr(rawLos[i])
			s.AddInterval(Interval{Lo: lo, Hi: lo + Addr(rawLens[i])})
		}
		size := s.Size()
		prev := Addr(0)
		for i := uint64(0); i < size; i++ {
			a := s.Select(i)
			if i > 0 && a <= prev {
				return false
			}
			if !s.Contains(a) {
				return false
			}
			if s.Rank(a) != i {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetSubtractEdgeCases(t *testing.T) {
	full := NewSet(Interval{Lo: 0, Hi: MaxAddr})
	hole := SetOfPrefixes(MustParsePrefix("192.168.0.0/16"))
	diff := full.Subtract(hole)
	if got := diff.Size(); got != 1<<32-65536 {
		t.Fatalf("Size() = %d, want 2^32-65536", got)
	}
	if diff.Contains(MustParseAddr("192.168.1.1")) {
		t.Error("subtracted range still present")
	}
	if !diff.Contains(MustParseAddr("192.167.255.255")) || !diff.Contains(MustParseAddr("192.169.0.0")) {
		t.Error("boundary addresses missing")
	}

	// Subtracting a superset empties the set.
	if got := hole.Subtract(full); !got.IsEmpty() {
		t.Errorf("subtract superset = %v, want empty", got)
	}

	// Subtracting the empty set is the identity.
	if got := hole.Subtract(&Set{}); !slices.Equal(got.Intervals(), hole.Intervals()) {
		t.Errorf("subtract empty = %v, want %v", got, hole)
	}
}

// TestSetContainsFrozenMatchesScan checks the frozen set's /16 occupancy
// bitmap against a scan of the intervals the set was built from, on sets
// whose intervals straddle /16 boundaries, cover a whole /8, touch both
// ends of the address space, or are added after Freeze.
func TestSetContainsFrozenMatchesScan(t *testing.T) {
	r := rng.NewXoshiro(77)
	// straddle builds n intervals, each crossing the /16 boundary above a
	// random /16.
	straddle := func(n int) []Interval {
		var ivs []Interval
		for range n {
			edge := Addr(r.Uint64n(1<<16-1)+1) << 16
			ivs = append(ivs, Interval{Lo: edge - Addr(1+r.Uint64n(300)), Hi: edge + Addr(r.Uint64n(300))})
		}
		return ivs
	}
	slash24s := func(n int) []Interval {
		var ivs []Interval
		for range n {
			lo := MustParsePrefix("20.0.0.0/8").Nth(r.Uint64n(1<<24) &^ 0xff)
			ivs = append(ivs, Interval{Lo: lo, Hi: lo | 0xff})
		}
		return ivs
	}
	cases := []struct {
		name  string
		ivs   []Interval
		added []Interval // added after Freeze
	}{
		{name: "straddle", ivs: straddle(40)},
		{name: "whole-slash8", ivs: append(slash24s(20), MustParsePrefix("44.0.0.0/8").Range())},
		{name: "ends", ivs: append(straddle(10),
			Interval{Lo: 0, Hi: 70000}, Interval{Lo: MaxAddr - 70000, Hi: MaxAddr})},
		{name: "single-addresses", ivs: []Interval{{0, 0}, {MaxAddr, MaxAddr}, {1<<16 + 1, 1<<16 + 1},
			{1<<16 - 2, 1<<16 - 2}, {5 << 16, 5 << 16}, {9<<16 + 9, 9<<16 + 9}, {1 << 31, 1 << 31}, {3 << 30, 3 << 30}}},
		{name: "add-after-freeze", ivs: slash24s(30), added: []Interval{
			MustParsePrefix("99.5.0.0/16").Range(), {Lo: MaxAddr, Hi: MaxAddr}, {Lo: 0, Hi: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(tc.ivs...)
			s.Freeze()
			if s.occ == nil {
				t.Fatalf("a frozen set of %d intervals has no occupancy bitmap", len(s.ivs))
			}
			all := tc.ivs
			if tc.added != nil {
				for _, iv := range tc.added {
					s.AddInterval(iv)
				}
				all = append(append([]Interval{}, tc.ivs...), tc.added...)
			}
			scan := func(a Addr) bool {
				for _, iv := range all {
					if a >= iv.Lo && a <= iv.Hi {
						return true
					}
				}
				return false
			}
			queries := []Addr{0, 1, MaxAddr - 1, MaxAddr}
			for _, iv := range all {
				for _, a := range []Addr{iv.Lo - 1, iv.Lo, iv.Hi, iv.Hi + 1,
					iv.Lo&^0xffff - 1, iv.Lo &^ 0xffff, iv.Hi | 0xffff, iv.Hi | 0xffff + 1} {
					queries = append(queries, a)
				}
				queries = append(queries, iv.Lo+Addr(r.Uint64n(iv.Len())))
			}
			for range 20000 {
				queries = append(queries, Addr(r.Uint64n(1<<32)))
			}
			for _, a := range queries {
				if got, want := s.Contains(a), scan(a); got != want {
					t.Fatalf("Contains(%v) = %v, scan says %v", a, got, want)
				}
			}
		})
	}
}

// TestSetFrozenConcurrentReads queries one frozen set, /16 bitmap
// included, from several goroutines at once. Under -race it pins the
// Freeze contract for the bitmap: after Freeze, Contains and Rank only
// read.
func TestSetFrozenConcurrentReads(t *testing.T) {
	var ivs []Interval
	for i := range 40 {
		lo := Addr(i)<<22 | Addr(i)<<8
		ivs = append(ivs, Interval{Lo: lo, Hi: lo + 300})
	}
	s := NewSet(ivs...)
	s.Freeze()
	r := rng.NewXoshiro(9)
	queries := make([]Addr, 5000)
	for i := range queries {
		queries[i] = Addr(r.Uint64n(uint64(41) << 22))
	}
	want := make([]bool, len(queries))
	for i, a := range queries {
		want[i] = s.Contains(a)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, a := range queries {
				if s.Contains(a) != want[i] || s.Rank(a) > s.Size() {
					t.Errorf("concurrent read of %v disagrees with the serial one", a)
					return
				}
			}
		}()
	}
	wg.Wait()
}
