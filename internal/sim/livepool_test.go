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

// test reports whether slot pos is live.
func (li *liveIndex) test(pos int) bool {
	return li.words[pos>>6]>>(uint(pos)&63)&1 == 1
}

func (l naiveLive) liveIn(lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if l[i] {
			c++
		}
	}
	return c
}

// checkSpanSelect compares rank and select on [lo, hi) against the
// reference: the span's live count, and for every live slot of the span,
// in order, the slot that the span's start rank plus its in-span index
// selects.
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
		if got := li.selectRank(base + j); got != pos {
			t.Fatalf("n=%d: select %d in [%d,%d) = %d, want %d", li.n, j, lo, hi, got, pos)
		}
		j++
	}
}

func TestLiveIndexMatchesNaive(t *testing.T) {
	// Sizes straddle the word, block (256 slots) and 1024-slot boundaries.
	for _, n := range []int{1, 63, 64, 65, 255, 256, 257, 511, 513, 1023, 1024, 1025, 4096, 5000} {
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

// liveSlots lists ref's live slots in order: liveSlots(ref)[k] is the
// slot a select of rank k must return.
func liveSlots(ref naiveLive) []int {
	var s []int
	for pos, l := range ref {
		if l {
			s = append(s, pos)
		}
	}
	return s
}

// checkSelectDirectory holds the select directory to its definition:
// ⌈live/liveSelSample⌉ entries, entry i the block holding live rank
// i·liveSelSample.
func checkSelectDirectory(t *testing.T, li *liveIndex, slots []int) {
	t.Helper()
	live := len(slots)
	if got, want := len(li.sel), (live+liveSelSample-1)/liveSelSample; got != want {
		t.Fatalf("n=%d live=%d: %d directory entries, want %d", li.n, live, got, want)
	}
	for i, b := range li.sel {
		if want := slots[i*liveSelSample] / liveBlockSlots; int(b) != want {
			t.Fatalf("n=%d live=%d: sel[%d] = %d, want block %d", li.n, live, i, b, want)
		}
	}
}

// checkRankSelect selects rank k and checks it against the k-th live
// slot.
func checkRankSelect(t *testing.T, li *liveIndex, slots []int, k int) {
	t.Helper()
	if got, pos := li.selectRank(k), slots[k]; got != pos {
		t.Fatalf("n=%d: select rank %d = %d, want %d", li.n, k, got, pos)
	}
}

// checkSelectBlock holds selectBlock to its definition at every live
// rank: block b with pre[b] ≤ k < pre[b+1], and k's rank within it. A
// scan that stops one block early still selects the right slot, since
// the word walk runs on into the next block, so only this check sees it.
func checkSelectBlock(t *testing.T, li *liveIndex, live int) {
	t.Helper()
	for k := 0; k < live; k++ {
		b, rem := li.selectBlock(k)
		if int(li.pre[b]) > k || k >= int(li.pre[b+1]) || int(rem) != k-int(li.pre[b]) {
			t.Fatalf("n=%d: selectBlock(%d) = (%d, %d), but pre[%d..%d] = %d..%d",
				li.n, k, b, rem, b, b+1, li.pre[b], li.pre[b+1])
		}
	}
}

// TestLiveIndexSelectDirectory drives the select directory through the
// shapes its lookup must get right: ranks on, just before and just after
// every sample, the last (partial) sample bucket, fewer live slots than
// one sample, a long dead run that makes one sample bucket span many
// blocks, and an index whose every slot is dead. At each shape it also
// checks selectBlock at every live rank.
func TestLiveIndexSelectDirectory(t *testing.T) {
	const n = 300*liveBlockSlots + 77
	li := newLiveIndex(n)
	ref := newNaiveLive(n)
	kill := func(pos int) {
		li.kill(pos)
		ref.kill(pos)
	}
	check := func(stage string) {
		t.Helper()
		li.refresh()
		slots := liveSlots(ref)
		checkSelectDirectory(t, li, slots)
		checkSelectBlock(t, li, len(slots))
		if got := li.rank(n); got != len(slots) {
			t.Fatalf("%s: rank(n) = %d, want %d", stage, got, len(slots))
		}
		for i := 0; i*liveSelSample <= len(slots); i++ {
			for _, d := range []int{-1, 0, 1} {
				if k := i*liveSelSample + d; k >= 0 && k < len(slots) {
					checkRankSelect(t, li, slots, k)
				}
			}
		}
		// Every rank of the last sample bucket, which ends short of a sample.
		for k := len(slots) / liveSelSample * liveSelSample; k < len(slots); k++ {
			checkRankSelect(t, li, slots, k)
		}
	}
	check("full")

	// A dead run over blocks 20–219: the sample bucket that crosses it
	// spans 200 blocks.
	for pos := 20*liveBlockSlots + 13; pos < 220*liveBlockSlots+5; pos++ {
		kill(pos)
	}
	r := rng.NewXoshiro(7)
	for k := 0; k < n/3; k++ {
		kill(int(r.Uint64n(n)))
	}
	check("dead run")
	checkSpanSelect(t, li, ref, 0, n)
	checkSpanSelect(t, li, ref, 19*liveBlockSlots, 221*liveBlockSlots)

	// Fewer live slots than one sample: a handful at both ends and one
	// inside the dead run.
	for pos := 0; pos < n; pos++ {
		if pos != 3 && pos != 100*liveBlockSlots+9 && pos < n-40 {
			kill(pos)
		}
	}
	check("below one sample")
	if live := ref.liveIn(0, n); live >= liveSelSample {
		t.Fatalf("setup: %d live, want fewer than %d", live, liveSelSample)
	}
	checkSpanSelect(t, li, ref, 0, n)

	// Every slot dead: the directory is empty and no rank is selectable.
	for pos := 0; pos < n; pos++ {
		kill(pos)
	}
	check("all dead")
	for b := 0; b <= li.blocks; b++ {
		if li.pre[b] != 0 {
			t.Fatalf("all dead: pre[%d] = %d", b, li.pre[b])
		}
	}
}

// TestSelectInWord holds the broadword in-word select to a naive bit
// scan, for every rank of crafted words (one bit at either end, all ones,
// both end bits, alternating bytes, an empty byte in the middle) and of
// random words.
func TestSelectInWord(t *testing.T) {
	words := []uint64{
		1,
		1 << 63,
		^uint64(0),
		0x8000000000000001,
		0xff00ff00ff00ff00,
		0x00ff00ff00ff00ff,
		0xffffff00ffffffff,
		0x0000000100000000,
		0x8040201008040201,
	}
	r := rng.NewXoshiro(11)
	for i := 0; i < 10_000; i++ {
		words = append(words, r.Uint64())
	}
	for _, x := range words {
		j := uint(0)
		for p := 0; p < 64; p++ {
			if x>>p&1 == 0 {
				continue
			}
			if got := selectInWord(x, j); got != p {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", x, j, got, p)
			}
			j++
		}
	}
}

// BenchmarkLiveIndexSelect prices one select on a 10⁷-slot index with
// half its slots killed, for ranks drawn from a random span of 8,192
// slots, the size of one populated /16's slot span at internet-10m scale,
// and for ranks drawn over the whole index. Run with:
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
	makeQueries := func(span int) []int {
		qs := make([]int, 1<<16)
		for i := range qs {
			lo := int(r.Uint64n(uint64(n - span + 1)))
			base, live := li.rank(lo), li.rank(lo+span)-li.rank(lo)
			qs[i] = base + int(r.Uint64n(uint64(live)))
		}
		return qs
	}
	for _, bc := range []struct {
		name string
		span int
	}{{"span8192", 8192}, {"whole", n}} {
		qs := makeQueries(bc.span)
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += li.selectRank(qs[i&(len(qs)-1)])
			}
			if sink < 0 {
				b.Fatal("unreachable")
			}
		})
	}
}
