package sim

import "math/bits"

// liveIndex tracks which slots are still susceptible ("live") at
// internet scale: a dense bitset (one bit per slot), a live count per
// 256-slot block (four words, half a cache line), a prefix array over
// those counts, and a sampled select directory. The block arrays for 10⁸
// slots are ~1.6 MB each, small enough to stay cache-resident while the
// bitset itself streams from memory.
//
// The index supports the queries the fast driver's victim pools need:
//
//	kill(pos)                 — mark a slot infected                 O(1)
//	refresh()                 — rebuild the prefixes and directory   O(blocks)
//	rank(pos)                 — live slots in [0, pos)               O(1), ≤ 4 popcounts
//	selectSpan(k, lo, hi)     — the k-th live slot, known in [lo,hi) O(log blocks per sample), ≤ 4 popcounts
//
// The directory sel samples every liveSelSample-th live rank: sel[i] is
// the block holding rank i·liveSelSample. A select searches only the
// blocks between two adjacent samples (further cut to its span), which is
// one or two blocks wherever most slots are live, and finishes with a
// broadword in-word select, so each draw does bounded work.
//
// rank and selectSpan answer as of the last refresh: a kill updates the
// bitset and its block's count at once, but the prefix array and the
// directory only at the next refresh. The driver refreshes serially at
// every rate rebuild, and the phase-1 draws that select run only after a
// rebuild and only read, so the two-phase tick (parallel read-only draws,
// serial merge) keeps every query consistent and race-free.
const (
	liveBlockWords = 4                   // 64-bit words per block
	liveBlockSlots = liveBlockWords * 64 // 256 slots per block
	liveSelSample  = 256                 // live ranks per select-directory entry
)

type liveIndex struct {
	n      int
	blocks int
	words  []uint64 // bit set ⇒ slot live
	count  []int32  // per block: live slots
	pre    []int32  // per block b: live slots in blocks [0, b), as of refresh
	// sel[i] is the block holding live rank i·liveSelSample, as of refresh;
	// its ⌊live/liveSelSample⌋+2 entries end with the last block, so
	// sel[k/liveSelSample+1] bounds every rank k's block from above.
	sel []int32
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
	li.sel = make([]int32, 0, n/liveSelSample+2)
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

// refresh brings the block prefix array and the select directory up to
// the kills made so far.
func (li *liveIndex) refresh() {
	sel := li.sel[:0]
	var s, next int32 // next: the next sampled rank
	for b, c := range li.count {
		li.pre[b] = s
		s += c
		for ; next < s; next += liveSelSample {
			sel = append(sel, int32(b))
		}
	}
	li.pre[li.blocks] = s
	last := int32(max(li.blocks-1, 0))
	for len(sel) < int(s/liveSelSample)+2 {
		sel = append(sel, last)
	}
	li.sel = sel
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
// caller guarantees that slot lies in [lo, hi), so its block lies both in
// that span's blocks and between the directory samples around k; a
// branch-free halving search over the intersection finds it: the last
// block whose prefix is at most k. A popcount walk of at most four words
// then finds the word, and a broadword in-word select the slot.
func (li *liveIndex) selectSpan(k, lo, hi int) int {
	rem := int32(k)
	i := k / liveSelSample
	b := max(lo/liveBlockSlots, int(li.sel[i]))
	end := min((hi-1)/liveBlockSlots, int(li.sel[i+1])) + 1
	for n := end - b; n > 1; {
		half := n >> 1
		if li.pre[b+half] <= rem {
			b += half
		}
		n -= half
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

const (
	bytesL8 = 0x0101010101010101 // 1 in every byte
	bytesH8 = 0x8080808080808080 // the high bit of every byte
)

// selectInByte[j][v] is the position of the (j+1)-th set bit of byte v,
// or 8 when v has at most j set bits.
var selectInByte = func() (t [8][256]uint8) {
	for v := 0; v < 256; v++ {
		j := 0
		for p := 0; p < 8; p++ {
			if v>>p&1 == 1 {
				t[j][v] = uint8(p)
				j++
			}
		}
		for ; j < 8; j++ {
			t[j][v] = 8
		}
	}
	return t
}()

// selectInWord returns the bit position of the (r+1)-th set bit of x. The
// caller guarantees x has more than r set bits. It is branch-free
// (Vigna, "Broadword implementation of rank/select queries"): byte
// popcounts in SWAR, their running sums by one multiply, the target byte
// as the count of running sums at most r (a bytewise compare in one
// subtraction), and the bit inside that byte from a table.
func selectInWord(x uint64, r uint) int {
	s := x - x>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	cum := s * bytesL8 // byte i: set bits in bytes 0..i, at most 64
	// Byte i of r·L8|H8 is 0x80+r and of cum at most 64, so no byte
	// borrows, and the difference keeps its high bit iff cum_i ≤ r.
	byteIdx := uint(bits.OnesCount64(((uint64(r)*bytesL8 | bytesH8) - cum) & bytesH8))
	shift := byteIdx * 8
	before := uint((cum<<8)>>shift) & 0xff // set bits below the target byte
	return int(shift) + int(selectInByte[r-before][uint8(x>>shift)])
}
