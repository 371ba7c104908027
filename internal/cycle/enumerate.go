package cycle

import "fmt"

// ForEachShortCycle invokes fn exactly once per distinct cycle whose length
// is at most maxLen, passing a representative state and the cycle length.
// Callers iterate a cycle's members by stepping the map from start.
//
// Only the short-cycle states are touched: they form an arithmetic
// progression (see StatesWithPeriodAtMost), so the cost is O(#short states),
// not O(2^Bits). This is how the Slammer analysis finds every "trap" cycle —
// the cycles that make an infected host hammer a handful of addresses — in
// a 4-billion-state space.
func (m Map) ForEachShortCycle(maxLen uint64, fn func(start uint32, length uint64)) {
	prog, ok := m.StatesWithPeriodAtMost(maxLen)
	if !ok {
		return
	}
	visited := newBitset(prog.Count)
	for i := uint64(0); i < prog.Count; i++ {
		if visited.get(i) {
			continue
		}
		start := prog.Nth(i)
		length := m.Period(start)
		// Mark every member of this cycle. Members stay within the
		// progression because their periods divide this cycle's length.
		cur := start
		for j := uint64(0); j < length; j++ {
			visited.set(prog.indexOf(cur))
			cur = m.Step(cur)
		}
		fn(start, length)
	}
}

// indexOf maps a progression member back to its index. It panics if state is
// not a member; internal callers only pass members.
func (p Progression) indexOf(state uint32) uint64 {
	delta := state - p.Start
	if p.Step == 0 || delta%p.Step != 0 {
		panic(fmt.Sprintf("cycle: state %#x not in progression", state))
	}
	return uint64(delta / p.Step)
}

// BruteForceCensus enumerates every state of the map (feasible only for
// reduced Bits) and returns the number of distinct cycles per length. It
// exists to verify the closed-form Census.
func (m Map) BruteForceCensus() map[uint64]uint64 {
	if m.Bits > 24 {
		panic(fmt.Sprintf("cycle: brute-force census over 2^%d states refused", m.Bits))
	}
	total := uint64(1) << m.Bits
	visited := newBitset(total)
	counts := make(map[uint64]uint64)
	for x := uint64(0); x < total; x++ {
		if visited.get(x) {
			continue
		}
		var length uint64
		cur := uint32(x)
		for !visited.get(uint64(cur)) {
			visited.set(uint64(cur))
			cur = m.Step(cur)
			length++
		}
		if cur != uint32(x) {
			// We walked into a previously seen cycle via a tail — impossible
			// for a bijection, so this indicates a non-invertible map.
			panic("cycle: map is not a bijection")
		}
		counts[length]++
	}
	return counts
}

// bitset is a fixed-size bitmap.
type bitset struct {
	words []uint64
}

func newBitset(n uint64) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64)}
}

func (b *bitset) get(i uint64) bool {
	return b.words[i/64]&(1<<(i%64)) != 0
}

func (b *bitset) set(i uint64) {
	b.words[i/64] |= 1 << (i % 64)
}
