package experiments

import (
	"errors"

	"repro/internal/sensor"
)

// blockIndex is an O(1) membership test from a 32-bit state to a monitored
// block, exploiting the fact that the IMS blocks live in distinct /8s. It
// is the hot-path structure for walking hundreds of millions of LCG states.
type blockIndex struct {
	blocks  []sensor.Block
	byOctet [256]int8 // top octet → block index, -1 if unmonitored
	lo, hi  []uint32
	base    []uint32 // first /24 index per block
	slots   []int    // /24 slot count per block
}

func newBlockIndex(blocks []sensor.Block) (*blockIndex, error) {
	bi := &blockIndex{blocks: blocks}
	for i := range bi.byOctet {
		bi.byOctet[i] = -1
	}
	for i, b := range blocks {
		o := b.Prefix.First().Slash8()
		if b.Prefix.Bits() < 8 {
			return nil, errors.New("experiments: blocks wider than /8 unsupported")
		}
		if bi.byOctet[o] != -1 {
			return nil, errors.New("experiments: two blocks share a /8; blockIndex requires distinct top octets")
		}
		bi.byOctet[o] = int8(i)
		bi.lo = append(bi.lo, uint32(b.Prefix.First()))
		bi.hi = append(bi.hi, uint32(b.Prefix.Last()))
		bi.base = append(bi.base, b.Prefix.First().Slash24())
		bi.slots = append(bi.slots, b.Prefix.Slash24s())
	}
	return bi, nil
}

// locate returns the block index and /24 slot for state, or ok=false when
// the state is unmonitored.
func (bi *blockIndex) locate(state uint32) (block, slot int, ok bool) {
	b := bi.byOctet[state>>24]
	if b < 0 {
		return 0, 0, false
	}
	i := int(b)
	if state < bi.lo[i] || state > bi.hi[i] {
		return 0, 0, false
	}
	s := int(state>>8) - int(bi.base[i])
	if s < 0 || s >= bi.slots[i] {
		s = 0 // sub-/24 blocks collapse to a single slot
	}
	return i, s, true
}
