package sim

import "math/bits"

// liveIndex tracks which slots are still susceptible ("live") at
// internet scale: a dense bitset (one bit per slot), a live count per
// 1024-slot block, and a prefix array over those counts. The block arrays
// for 10⁸ slots are a few hundred kilobytes, small enough to stay
// cache-resident while the bitset itself streams from memory.
//
// The index supports the queries the fast driver's victim pools need:
//
//	kill(pos)                 — mark a slot infected                 O(1)
//	refresh()                 — rebuild the block prefix array       O(blocks)
//	rank(pos)                 — live slots in [0, pos)               O(1)
//	selectSpan(k, lo, hi)     — the k-th live slot, known in [lo,hi) O(log span blocks)
//
// rank and selectSpan answer as of the last refresh: a kill updates the
// bitset and its block's count at once, but the prefix array only at the
// next refresh. The driver refreshes serially at every rate rebuild, and
// the phase-1 draws that select run only after a rebuild and only read, so
// the two-phase tick (parallel read-only draws, serial merge) keeps every
// query consistent and race-free.
const (
	liveBlockWords = 16                  // 64-bit words per block
	liveBlockSlots = liveBlockWords * 64 // 1024 slots per block
)

type liveIndex struct {
	n      int
	blocks int
	words  []uint64 // bit set ⇒ slot live
	count  []int32  // per block: live slots
	pre    []int32  // per block b: live slots in blocks [0, b), as of refresh
}

// newLiveIndex returns an index with all n slots live, refreshed.
func newLiveIndex(n int) *liveIndex {
	nw := (n + 63) / 64
	li := &liveIndex{n: n, words: make([]uint64, nw)}
	for i := range li.words {
		li.words[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		li.words[nw-1] = (uint64(1) << r) - 1
	}
	li.blocks = (nw + liveBlockWords - 1) / liveBlockWords
	li.count = make([]int32, li.blocks)
	li.pre = make([]int32, li.blocks+1)
	for b := range li.count {
		li.count[b] = int32(min(liveBlockSlots, n-b*liveBlockSlots))
	}
	li.refresh()
	return li
}

// test reports whether slot pos is live.
func (li *liveIndex) test(pos int) bool {
	return li.words[pos>>6]>>(uint(pos)&63)&1 == 1
}

// kill marks slot pos infected. Killing a dead slot is a no-op.
func (li *liveIndex) kill(pos int) {
	w, bit := pos>>6, uint64(1)<<(uint(pos)&63)
	if li.words[w]&bit == 0 {
		return
	}
	li.words[w] &^= bit
	li.count[pos/liveBlockSlots]--
}

// refresh brings the block prefix array up to the kills made so far.
func (li *liveIndex) refresh() {
	var s int32
	for b, c := range li.count {
		li.pre[b] = s
		s += c
	}
	li.pre[li.blocks] = s
}

// rank returns the number of live slots in [0, pos). pos may equal n.
func (li *liveIndex) rank(pos int) int {
	b := pos / liveBlockSlots
	s := int(li.pre[b])
	wEnd := pos >> 6
	for w := b * liveBlockWords; w < wEnd; w++ {
		s += bits.OnesCount64(li.words[w])
	}
	if r := uint(pos) & 63; r != 0 {
		s += bits.OnesCount64(li.words[wEnd] & ((uint64(1) << r) - 1))
	}
	return s
}

// selectSpan returns the k-th (0-based) live slot of the whole index. The
// caller guarantees that slot lies in [lo, hi), so a binary search over
// that span's blocks alone finds the containing block: the last one whose
// prefix is at most k. A popcount walk then finds the word, and an in-word
// select the slot.
func (li *liveIndex) selectSpan(k, lo, hi int) int {
	rem := int32(k)
	b, end := lo/liveBlockSlots, (hi-1)/liveBlockSlots+1
	for b+1 < end {
		if mid := int(uint(b+end) >> 1); li.pre[mid] <= rem {
			b = mid
		} else {
			end = mid
		}
	}
	rem -= li.pre[b]
	w := b * liveBlockWords
	for {
		c := int32(bits.OnesCount64(li.words[w]))
		if rem < c {
			break
		}
		rem -= c
		w++
	}
	return w<<6 + selectInWord(li.words[w], uint(rem))
}

// selectInWord returns the bit position of the (r+1)-th set bit of x. The
// caller guarantees x has more than r set bits. A binary descent over
// half-width popcounts narrows the search to one byte, so the final
// clear-lowest-bit scan runs at most 7 times instead of 63.
func selectInWord(x uint64, r uint) int {
	pos := 0
	if c := uint(bits.OnesCount32(uint32(x))); r >= c {
		r -= c
		x >>= 32
		pos = 32
	}
	if c := uint(bits.OnesCount16(uint16(x))); r >= c {
		r -= c
		x >>= 16
		pos += 16
	}
	if c := uint(bits.OnesCount8(uint8(x))); r >= c {
		r -= c
		x >>= 8
		pos += 8
	}
	// The r+1 lowest set bits of x now all sit in its low byte.
	for ; r > 0; r-- {
		x &= x - 1
	}
	return pos + bits.TrailingZeros64(x)
}
