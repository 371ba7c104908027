package sim

import (
	"testing"

	"repro/internal/rng"
)

// naiveLive is the reference implementation: a plain bool slice.
type naiveLive []bool

func newNaiveLive(n int) naiveLive {
	l := make(naiveLive, n)
	for i := range l {
		l[i] = true
	}
	return l
}

func (l naiveLive) kill(pos int) { l[pos] = false }

func (l naiveLive) liveIn(lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if l[i] {
			c++
		}
	}
	return c
}

// checkSpanSelect compares rank and span-bounded select on [lo, hi)
// against the reference: the span's live count, and for every live slot
// of the span, in order, the slot its in-span index selects.
func checkSpanSelect(t *testing.T, li *liveIndex, ref naiveLive, lo, hi int) {
	t.Helper()
	if got, want := li.rank(hi)-li.rank(lo), ref.liveIn(lo, hi); got != want {
		t.Fatalf("n=%d: live in [%d,%d) = %d, want %d", li.n, lo, hi, got, want)
	}
	base, j := li.rank(lo), 0
	for pos := lo; pos < hi; pos++ {
		if !ref[pos] {
			continue
		}
		if got := li.selectSpan(base+j, lo, hi); got != pos {
			t.Fatalf("n=%d: select %d in [%d,%d) = %d, want %d", li.n, j, lo, hi, got, pos)
		}
		j++
	}
}

func TestLiveIndexMatchesNaive(t *testing.T) {
	// Sizes straddle the word and block boundaries.
	for _, n := range []int{1, 63, 64, 65, 1023, 1024, 1025, 4096, 5000} {
		li := newLiveIndex(n)
		ref := newNaiveLive(n)
		r := rng.NewXoshiro(uint64(n)*7 + 1)
		if got := li.rank(n); got != n {
			t.Fatalf("n=%d: initial rank(n) = %d", n, got)
		}
		// Kill a random half, checking queries as the index empties. Queries
		// answer as of the last refresh, so each round refreshes after its
		// kills, as the driver does at every rate rebuild.
		for round := 0; round < 4; round++ {
			for k := 0; k < n/8+1; k++ {
				pos := int(r.Uint64n(uint64(n)))
				li.kill(pos)
				ref.kill(pos)
			}
			li.refresh()
			for q := 0; q < 20; q++ {
				lo := int(r.Uint64n(uint64(n)))
				hi := lo + 1 + int(r.Uint64n(uint64(n-lo)))
				checkSpanSelect(t, li, ref, lo, hi)
			}
			if got, want := li.rank(n), ref.liveIn(0, n); got != want {
				t.Fatalf("n=%d: total rank = %d, want %d", n, got, want)
			}
		}
	}
}

// TestLiveIndexSelectSpanProperty holds span-bounded select to the naive
// reference on random spans, and on the shapes its block search must get
// right: spans inside one block, spans whose inner blocks are all dead,
// and spans ending in the last, partial block.
func TestLiveIndexSelectSpanProperty(t *testing.T) {
	const n = 20*liveBlockSlots + 300 // the last block is partial
	li := newLiveIndex(n)
	ref := newNaiveLive(n)
	r := rng.NewXoshiro(2024)
	for k := 0; k < n/2; k++ {
		pos := int(r.Uint64n(n))
		li.kill(pos)
		ref.kill(pos)
	}
	// Empty blocks 3, 7–9 and 15.
	for _, b := range []int{3, 7, 8, 9, 15} {
		for pos := b * liveBlockSlots; pos < (b+1)*liveBlockSlots; pos++ {
			li.kill(pos)
			ref.kill(pos)
		}
	}
	li.refresh()
	block := func(b int) int { return b * liveBlockSlots }
	spans := [][2]int{
		{block(2) + 10, block(2) + 900},  // one block
		{block(2), block(3)},             // exactly one block
		{block(3), block(4)},             // one empty block
		{block(6) + 500, block(10) + 20}, // dead blocks inside
		{block(2), block(16)},            // dead blocks at several depths
		{block(19) + 7, n},               // into the partial block
		{block(20), n},                   // only the partial block
		{0, n},                           // everything
	}
	for i := 0; i < 200; i++ {
		lo := int(r.Uint64n(n))
		spans = append(spans, [2]int{lo, lo + 1 + int(r.Uint64n(uint64(min(n-lo, 3*liveBlockSlots))))})
	}
	for _, sp := range spans {
		checkSpanSelect(t, li, ref, sp[0], sp[1])
	}
}

func TestLiveIndexKillIdempotent(t *testing.T) {
	li := newLiveIndex(200)
	li.kill(100)
	li.kill(100)
	li.refresh()
	if got := li.rank(200); got != 199 {
		t.Fatalf("double kill changed count twice: rank = %d, want 199", got)
	}
	if li.test(100) {
		t.Fatal("killed slot still live")
	}
	if !li.test(99) {
		t.Fatal("untouched slot not live")
	}
}

func TestLiveIndexSelectExhaustive(t *testing.T) {
	// Every live slot must be selectable by its in-range index.
	n := 2500
	li := newLiveIndex(n)
	ref := newNaiveLive(n)
	r := rng.NewXoshiro(99)
	for k := 0; k < 2*n; k++ { // kill most slots, duplicates fine
		pos := int(r.Uint64n(uint64(n)))
		li.kill(pos)
		ref.kill(pos)
	}
	li.refresh()
	lo := 700
	if ref.liveIn(lo, n) == 0 {
		t.Skip("degenerate: nothing live past lo")
	}
	checkSpanSelect(t, li, ref, lo, n)
}

// BenchmarkLiveIndexSelect prices one victim select on a 10⁷-slot index
// with half its slots killed: over spans of 8 blocks, the size of one
// populated /16's slot span at internet-10m scale, and over the whole
// index. Run with:
//
//	go test -run '^$' -bench '^BenchmarkLiveIndexSelect$' ./internal/sim
func BenchmarkLiveIndexSelect(b *testing.B) {
	const n = 10_000_000
	li := newLiveIndex(n)
	r := rng.NewXoshiro(1)
	for k := 0; k < n/2; k++ {
		li.kill(int(r.Uint64n(n)))
	}
	li.refresh()
	type query struct{ k, lo, hi int }
	makeQueries := func(span int) []query {
		qs := make([]query, 1<<16)
		for i := range qs {
			lo := int(r.Uint64n(uint64(n - span + 1)))
			base, live := li.rank(lo), li.rank(lo+span)-li.rank(lo)
			qs[i] = query{base + int(r.Uint64n(uint64(live))), lo, lo + span}
		}
		return qs
	}
	for _, bc := range []struct {
		name string
		span int
	}{{"span8blocks", 8 * liveBlockSlots}, {"whole", n}} {
		qs := makeQueries(bc.span)
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				q := qs[i&(len(qs)-1)]
				sink += li.selectSpan(q.k, q.lo, q.hi)
			}
			if sink < 0 {
				b.Fatal("unreachable")
			}
		})
	}
}
