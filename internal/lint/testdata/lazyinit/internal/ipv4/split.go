package ipv4

// Intervals has the real ipv4.Set's current shape: each reader calls a
// small guard that inlines, and the write lives in an out-of-line slow
// path. Intervals declares Freeze, so the split guards are still lazy
// initialization on a shared type.
type Intervals struct {
	ivs    []uint32
	dirty  bool
	ranks  []uint64
	ranked bool
}

// Freeze builds both lazy indexes before the value is shared.
func (s *Intervals) Freeze() { s.ensureRanks() }

func (s *Intervals) normalize() {
	if s.dirty { // want "unsynchronized lazy initialization of Intervals.dirty (flag-guarded rebuild)"
		s.merge()
	}
}

func (s *Intervals) merge() { s.dirty = false }

func (s *Intervals) ensureRanks() {
	if !s.ranked { // want "unsynchronized lazy initialization of Intervals.ranked (flag-guarded rebuild)"
		s.buildRanks()
	}
}

func (s *Intervals) buildRanks() {
	s.normalize()
	s.ranks = make([]uint64, len(s.ivs)+1)
	s.ranked = true
}

// Len reads a flag without writing it: an ordinary state check, not a
// lazy fill.
func (s *Intervals) Len() int {
	if s.ranked {
		return len(s.ranks) - 1
	}
	return len(s.ivs)
}
