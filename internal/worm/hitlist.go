package worm

import (
	"sort"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

// HitList scans uniformly inside a pre-programmed address set and never
// probes outside it. Hit-lists are the algorithmic factor behind bot
// "advscan"/"ipscan" commands (Table 1): they concentrate all probe traffic
// on the listed ranges, creating hotspots there and total blindness
// everywhere else — including at every darknet sensor the list omits.
type HitList struct {
	set  *ipv4.Set
	size uint64
	r    *rng.Xoshiro
}

// NewHitList returns a scanner restricted to set, which must be non-empty.
// The set is frozen here: scanners sharing one list run on concurrent
// driver workers, and Select's lazily built index must not be constructed
// under that concurrency (scanner construction itself always happens on a
// single goroutine — seeding and the exact driver's serial merge phase).
func NewHitList(set *ipv4.Set, seed uint64) *HitList {
	if set.IsEmpty() {
		panic("worm: empty hit-list")
	}
	set.Freeze()
	return &HitList{set: set, size: set.Size(), r: rng.NewXoshiro(seed)}
}

// Next returns a uniformly random member of the hit-list.
func (h *HitList) Next() ipv4.Addr {
	return h.set.Select(h.r.Uint64n(h.size))
}

// HitListFactory builds HitList scanners over a shared set, matching the
// paper's Section 5.2 simulation where every newly infected host receives
// the same /16 prefix list.
type HitListFactory struct {
	ListSet *ipv4.Set
}

// New implements Factory.
func (f HitListFactory) New(_ ipv4.Addr, seed uint64) TargetGenerator {
	return NewHitList(f.ListSet, seed)
}

// Name implements Factory.
func (f HitListFactory) Name() string { return "hitlist" }

// BuildGreedySlash16HitList selects up to k /16 networks covering as many of
// the given vulnerable addresses as possible, most-populated first — the
// construction the paper uses for its 10/100/1000/4481-prefix lists ("each
// /16 was chosen to cover as many remaining vulnerable hosts as possible").
//
// It returns the chosen prefixes and the fraction of the vulnerable
// population they cover. Ties break toward the numerically smaller /16 so
// the construction is deterministic.
func BuildGreedySlash16HitList(vulnerable []ipv4.Addr, k int) ([]ipv4.Prefix, float64) {
	if k <= 0 || len(vulnerable) == 0 {
		return nil, 0
	}
	counts := make(map[uint32]int)
	for _, a := range vulnerable {
		counts[a.Slash16()]++
	}
	type slash16 struct {
		net   uint32
		count int
	}
	all := make([]slash16, 0, len(counts))
	for net, c := range counts {
		all = append(all, slash16{net: net, count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].net < all[j].net
	})
	if k > len(all) {
		k = len(all)
	}
	prefixes := make([]ipv4.Prefix, 0, k)
	covered := 0
	for _, s := range all[:k] {
		p, err := ipv4.NewPrefix(ipv4.Addr(s.net<<16), 16)
		if err != nil {
			panic(err) // unreachable: 16 is always a valid length
		}
		prefixes = append(prefixes, p)
		covered += s.count
	}
	return prefixes, float64(covered) / float64(len(vulnerable))
}
