package ipv4

import (
	"fmt"
	"sort"
)

// Interval is an inclusive range [Lo, Hi] of IPv4 addresses.
type Interval struct {
	Lo, Hi Addr
}

// Len returns the number of addresses in iv.
func (iv Interval) Len() uint64 { return uint64(iv.Hi) - uint64(iv.Lo) + 1 }

// Intersect returns the overlap of iv and other and whether it is non-empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// String renders iv as "lo-hi".
func (iv Interval) String() string {
	return fmt.Sprintf("%v-%v", iv.Lo, iv.Hi)
}

// Set is a set of IPv4 addresses stored as sorted, disjoint, non-adjacent
// inclusive intervals. The zero value is an empty set ready to use.
// A Set is not safe for concurrent use: reads lazily normalize internal
// state after mutation.
//
// Sets support membership tests in O(log n), size queries in O(1) after
// normalization, and rank/select so that a uniform random address inside the
// set can be drawn in O(log n). Once frozen, a set of many intervals answers
// most misses with one bit test of a /16 occupancy bitmap. Worm hit-lists,
// darknet sensor geometries, and filtering policies are all represented as
// Sets.
type Set struct {
	ivs    []Interval
	dirty  bool
	size   uint64 // valid when !dirty
	ranks  []uint64
	ranked bool
	// occ, built with ranks when the set has at least occMinIntervals
	// intervals, has bit n set for each /16 n the set meets, over the
	// words from occBase (/16 n is bit n&63 of word n>>6 - occBase). Nil
	// whenever ranks are stale.
	occ     []uint64
	occBase uint32
}

// occMinIntervals is the interval count from which a frozen set keeps a
// /16 occupancy bitmap: below it the binary search takes at most three
// steps, and a small per-component sensor set should cost no memory.
const occMinIntervals = 8

// NewSet builds a set from arbitrary intervals (they may overlap).
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.AddInterval(iv)
	}
	s.normalize()
	return s
}

// SetOfPrefixes builds a set covering every address of the given prefixes.
func SetOfPrefixes(prefixes ...Prefix) *Set {
	s := &Set{}
	for _, p := range prefixes {
		s.AddPrefix(p)
	}
	s.normalize()
	return s
}

// AddInterval inserts the inclusive interval iv into s.
func (s *Set) AddInterval(iv Interval) {
	if iv.Lo > iv.Hi {
		return
	}
	s.ivs = append(s.ivs, iv)
	s.dirty = true
	s.ranked = false
	s.occ = nil
}

// AddPrefix inserts every address of p into s.
func (s *Set) AddPrefix(p Prefix) { s.AddInterval(p.Range()) }

// AddAddr inserts the single address a into s.
func (s *Set) AddAddr(a Addr) { s.AddInterval(Interval{Lo: a, Hi: a}) }

// normalize sorts and merges intervals so that they are disjoint,
// non-adjacent and ordered. The guard inlines into every reader; merge is
// the out-of-line slow path.
func (s *Set) normalize() {
	//lint:ignore lazyinit the Freeze contract serializes the first call: shared Sets are frozen on one goroutine before workers start, pinned by TestRunExactParallelHitListShared
	if s.dirty {
		s.merge()
	}
}

// ensureRanks builds the Select/Rank index unless it is current. The
// guard inlines into every reader; buildRanks is the out-of-line slow
// path. ranked implies normalized: AddInterval clears both.
func (s *Set) ensureRanks() {
	//lint:ignore lazyinit the Freeze contract serializes the first call: shared Sets are frozen on one goroutine before workers start, pinned by TestRunExactParallelHitListShared
	if !s.ranked {
		s.buildRanks()
	}
}

// merge is normalize's slow path.
func (s *Set) merge() {
	sort.Slice(s.ivs, func(i, j int) bool { return s.ivs[i].Lo < s.ivs[j].Lo })
	merged := s.ivs[:0]
	for _, iv := range s.ivs {
		n := len(merged)
		// Merge when overlapping or exactly adjacent (Hi+1 == Lo), taking
		// care not to overflow at 255.255.255.255.
		if n > 0 && (iv.Lo <= merged[n-1].Hi ||
			(merged[n-1].Hi != MaxAddr && iv.Lo == merged[n-1].Hi+1)) {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	s.ivs = merged
	s.size = 0
	for _, iv := range s.ivs {
		s.size += iv.Len()
	}
	s.dirty = false
}

// Contains reports whether a is a member of s.
func (s *Set) Contains(a Addr) bool {
	s.normalize()
	if s.occ != nil {
		n := a.Slash16()
		if w := n>>6 - s.occBase; w >= uint32(len(s.occ)) || s.occ[w]&(1<<(n&63)) == 0 {
			return false
		}
	}
	i := s.search(a)
	return i < len(s.ivs) && s.ivs[i].Lo <= a
}

// search returns the index of the first interval whose Hi is at least a,
// or len(s.ivs) if there is none. s must be normalized.
func (s *Set) search(a Addr) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ivs[mid].Hi < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Size returns the number of addresses in s.
func (s *Set) Size() uint64 {
	s.normalize()
	return s.size
}

// IsEmpty reports whether s contains no addresses.
func (s *Set) IsEmpty() bool { return s.Size() == 0 }

// Intervals returns the normalized intervals of s. The returned slice is a
// copy; mutating it does not affect s.
func (s *Set) Intervals() []Interval {
	s.normalize()
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// buildRanks prepares the cumulative-size index used by Select. Callers
// go through ensureRanks.
func (s *Set) buildRanks() {
	s.normalize()
	s.ranks = make([]uint64, len(s.ivs)+1)
	for i, iv := range s.ivs {
		s.ranks[i+1] = s.ranks[i] + iv.Len()
	}
	if len(s.ivs) >= occMinIntervals {
		s.occBase = s.ivs[0].Lo.Slash16() >> 6
		s.occ = make([]uint64, s.ivs[len(s.ivs)-1].Hi.Slash16()>>6-s.occBase+1)
		for _, iv := range s.ivs {
			for n := iv.Lo.Slash16(); n <= iv.Hi.Slash16(); n++ {
				s.occ[n>>6-s.occBase] |= 1 << (n & 63)
			}
		}
	}
	s.ranked = true
}

// Freeze pre-computes every lazily built index (interval normalization,
// the Select/Rank cumulative-size table and the /16 occupancy bitmap that
// Contains consults). Sets build their indexes on first
// use, which is a hidden write: a set shared by concurrent readers must be
// frozen first — while still on a single goroutine — after which Contains,
// Size, Select, Rank, and IntersectInterval are read-only and safe to call
// concurrently (until the next Add* mutation).
func (s *Set) Freeze() { s.ensureRanks() }

// Select returns the i-th smallest address of s (0-based). It panics if
// i >= Size(); callers draw i uniformly in [0, Size()).
func (s *Set) Select(i uint64) Addr {
	s.ensureRanks()
	if i >= s.size {
		panic(fmt.Sprintf("ipv4: Select(%d) out of range for set of size %d", i, s.size))
	}
	k := sort.Search(len(s.ivs), func(k int) bool { return s.ranks[k+1] > i })
	return s.ivs[k].Lo + Addr(i-s.ranks[k])
}

// Rank returns the number of set members strictly less than a.
func (s *Set) Rank(a Addr) uint64 {
	s.ensureRanks()
	i := s.search(a)
	if i == len(s.ivs) {
		return s.size
	}
	if a <= s.ivs[i].Lo {
		return s.ranks[i]
	}
	return s.ranks[i] + uint64(a-s.ivs[i].Lo)
}

// IntersectInterval returns the total number of set members inside iv.
func (s *Set) IntersectInterval(iv Interval) uint64 {
	if iv.Lo > iv.Hi {
		return 0
	}
	hiRank := s.Rank(iv.Hi)
	if s.Contains(iv.Hi) {
		hiRank++
	}
	return hiRank - s.Rank(iv.Lo)
}

// Intersect returns a new set containing every address present in both s
// and other.
func (s *Set) Intersect(other *Set) *Set {
	s.normalize()
	other.normalize()
	out := &Set{}
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if iv, ok := s.ivs[i].Intersect(other.ivs[j]); ok {
			out.ivs = append(out.ivs, iv)
		}
		if s.ivs[i].Hi < other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	out.dirty = true
	out.normalize()
	return out
}

// Subtract returns a new set containing every address of s not in other.
func (s *Set) Subtract(other *Set) *Set {
	s.normalize()
	other.normalize()
	out := &Set{}
	j := 0
	for _, iv := range s.ivs {
		lo, hi := iv.Lo, iv.Hi
		for j < len(other.ivs) && other.ivs[j].Hi < lo {
			j++
		}
		covered := false
		for k := j; k < len(other.ivs) && other.ivs[k].Lo <= hi; k++ {
			cut := other.ivs[k]
			if cut.Lo > lo {
				out.AddInterval(Interval{Lo: lo, Hi: cut.Lo - 1})
			}
			if cut.Hi >= hi {
				covered = true
				break
			}
			lo = cut.Hi + 1
		}
		if !covered && lo <= hi {
			out.AddInterval(Interval{Lo: lo, Hi: hi})
		}
	}
	out.normalize()
	return out
}

// String renders s as a comma-separated interval list (capped for sanity).
func (s *Set) String() string {
	s.normalize()
	const maxShown = 8
	out := ""
	for i, iv := range s.ivs {
		if i == maxShown {
			return fmt.Sprintf("%s,…(%d intervals)", out, len(s.ivs))
		}
		if i > 0 {
			out += ","
		}
		out += iv.String()
	}
	if out == "" {
		return "∅"
	}
	return out
}
