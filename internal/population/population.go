// Package population synthesizes vulnerable-host populations with the
// clustering structure the hotspots paper measured and fed into its
// Section 5 simulations.
//
// The paper's CodeRedII vulnerable population: 134,586 unique addresses
// clustered in 47 /8 networks, occupying 4,481 distinct /16s, with the
// top 20 /8s holding 94% of hosts, and greedy /16 hit-lists of size
// 10/100/1000/4481 covering 10.60%/50.49%/91.33%/100% of the population.
// Synthesize reproduces exactly this shape (up to rounding) for any
// requested size, deterministically from a seed.
//
// A fraction of hosts can be placed behind NATs in 192.168.0.0/16 private
// space (Section 5.3): NAT'd hosts keep a private own-address (which is what
// CodeRedII's local preference keys on) and are grouped into sites;
// reachability semantics live in package netenv.
//
// Host order is a contract. Hosts are kept in canonical order: the public
// hosts by ascending address, then each NAT site as one contiguous block,
// sites in ascending id order, each sorted by private address. A host's id
// is its position in that order, so Synthesize and AssignNAT fix which
// host an id names, Region hands out a site's (or the public hosts')
// id range together with its sorted addresses, and NewIndex resolves an
// address back to ids.
package population

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

// NoSite marks a host that is publicly addressed rather than NAT'd.
const NoSite = -1

// natSpace is the private network AssignNAT draws every NAT'd address from.
var natSpace = ipv4.MustParsePrefix("192.168.0.0/16")

// Host is one vulnerable host.
type Host struct {
	// Addr is the address the host itself sees: its public address, or its
	// RFC 1918 private address when behind a NAT. Worm local preference
	// operates on this value.
	Addr ipv4.Addr
	// Site groups NAT'd hosts sharing one private network; NoSite for
	// public hosts.
	Site int
}

// IsNATed reports whether the host sits behind a NAT.
func (h Host) IsNATed() bool { return h.Site != NoSite }

// Config controls synthesis.
type Config struct {
	// Size is the number of vulnerable hosts.
	Size int
	// Slash8s is the number of distinct /8 networks hosting the population.
	Slash8s int
	// Slash16s is the number of distinct /16 networks occupied.
	Slash16s int
	// Anchors pins the cumulative population share covered by the k
	// most-populated /16s; between anchors the /16 size profile is
	// interpolated log-log. Must be sorted by K.
	Anchors []CoverageAnchor
	// Include192Slash8 forces 192.0.0.0/8 to be one of the populated /8s,
	// which the CodeRedII experiments require (public vulnerable hosts in
	// 192/8 are what the NAT leak infects).
	Include192Slash8 bool
	// Seed drives all randomness.
	Seed uint64
}

// CoverageAnchor says "the top K /16s hold Share of all hosts".
type CoverageAnchor struct {
	K     int
	Share float64
}

// DefaultCodeRedII returns the configuration reproducing the paper's
// CodeRedII population statistics.
func DefaultCodeRedII(seed uint64) Config {
	return Config{
		Size:     134586,
		Slash8s:  47,
		Slash16s: 4481,
		Anchors: []CoverageAnchor{
			{K: 10, Share: 0.1060},
			{K: 100, Share: 0.5049},
			{K: 1000, Share: 0.9133},
			{K: 4481, Share: 1.0},
		},
		Include192Slash8: true,
		Seed:             seed,
	}
}

// Population is a synthesized vulnerable population, stored by column in
// canonical order: 4 bytes per public host, 8 per NAT'd one.
type Population struct {
	addrs  []ipv4.Addr // every host's own-address, in canonical order
	public int         // hosts [0, public) are public
	site   []int32     // site[i] is the site of NAT'd host public+i
	sites  int
}

// Synthesize builds a population per cfg.
func Synthesize(cfg Config) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, errors.New("population: non-positive size")
	}
	if cfg.Slash8s <= 0 || cfg.Slash8s > 200 {
		return nil, fmt.Errorf("population: %d /8s out of range", cfg.Slash8s)
	}
	if cfg.Slash16s < cfg.Slash8s || cfg.Slash16s > cfg.Slash8s*256 {
		return nil, fmt.Errorf("population: %d /16s impossible within %d /8s", cfg.Slash16s, cfg.Slash8s)
	}
	if cfg.Slash16s > cfg.Size {
		return nil, fmt.Errorf("population: %d /16s exceed %d hosts", cfg.Slash16s, cfg.Size)
	}
	r := rng.NewXoshiro(cfg.Seed)

	sizes := slash16Sizes(cfg)
	if sizes[0] > 1<<16 {
		return nil, fmt.Errorf("population: densest /16 needs %d hosts, exceeding its %d addresses", sizes[0], 1<<16)
	}
	slash8s := chooseSlash8s(cfg, r)
	capacity := 0
	for _, o := range slash8s {
		capacity += publicSlash16s(o)
	}
	if cfg.Slash16s > capacity {
		return nil, fmt.Errorf("population: %d /16s exceed the %d public /16s of the chosen /8s", cfg.Slash16s, capacity)
	}
	slash16s := assignSlash16s(sizes, slash8s, r)

	// Canonical order without a host sort: /16s are disjoint, so each
	// one's hosts occupy a fixed range of the address-ordered list,
	// starting at the host count of the /16s below it. start[i] is the
	// first slot of slash16s[i].
	start := make([]int, len(slash16s))
	at := 0
	for _, i := range orderByNet(slash16s) {
		start[i] = at
		at += sizes[i]
	}
	addrs := make([]ipv4.Addr, cfg.Size)
	// Per-/16 dedup: each /16 is visited once and only the low 16 address
	// bits are drawn, so collisions can never cross /16s and a 64-kbit
	// bitset stands in for a population-sized map. The bitset is then read
	// out in address order into the /16's range. touched marks its nonzero
	// words, so a sparse /16 reads (and clears) a few words, not all 1,024.
	var seen [1024]uint64
	var touched [16]uint64
	for i, net16 := range slash16s {
		for n, size := 0, sizes[i]; n < size; {
			low := r.Uint64n(1 << 16)
			if seen[low>>6]&(1<<(low&63)) != 0 {
				continue
			}
			seen[low>>6] |= 1 << (low & 63)
			touched[low>>12] |= 1 << (low >> 6 & 63)
			n++
		}
		k, base := start[i], ipv4.Addr(net16)<<16
		for tw, t := range touched {
			for ; t != 0; t &= t - 1 {
				w := tw<<6 | bits.TrailingZeros64(t)
				for b := seen[w]; b != 0; b &= b - 1 {
					addrs[k] = base | ipv4.Addr(w<<6|bits.TrailingZeros64(b))
					k++
				}
				seen[w] = 0
			}
		}
		touched = [16]uint64{}
	}
	return &Population{addrs: addrs, public: len(addrs)}, nil
}

// orderByNet returns the indexes of nets in ascending network order: a
// two-pass LSD radix sort over the 16-bit networks, low byte first, so
// its scratch is proportional to the list, not to the 2¹⁶ networks.
func orderByNet(nets []uint32) []int32 {
	a, b := make([]int32, len(nets)), make([]int32, len(nets))
	for i := range a {
		a[i] = int32(i)
	}
	for shift := 0; shift < 16; shift += 8 {
		var next [256]int
		for _, i := range a {
			next[nets[i]>>shift&0xff]++
		}
		at := 0
		for d, c := range next {
			next[d] = at
			at += c
		}
		for _, i := range a {
			d := nets[i] >> shift & 0xff
			b[next[d]] = i
			next[d]++
		}
		a, b = b, a
	}
	return a
}

// InternetScale returns a configuration for populations far beyond the
// paper's 134,586-host measurement — 10⁷ to 10⁸ hosts — keeping its
// qualitative shape (a dense head of /16s holding half the population, a
// long sparse tail) while respecting each /16's 65,536-address capacity;
// the paper's own anchor curve packs ~30 hosts per /16 and cannot stretch
// two more orders of magnitude. The mean occupancy here stays near the
// paper's ~2,170× /16 undersampling of the head.
func InternetScale(size int, seed uint64) Config {
	s16 := size / 2170
	if s16 < 200 {
		s16 = 200
	}
	if s16 > 200*256 {
		s16 = 200 * 256
	}
	if s16 > size {
		s16 = size
	}
	return Config{
		Size:     size,
		Slash8s:  200,
		Slash16s: s16,
		Anchors: []CoverageAnchor{
			{K: s16 / 10, Share: 0.5},
			{K: s16, Share: 1.0},
		},
		Include192Slash8: true,
		Seed:             seed,
	}
}

// slash16Sizes produces the per-/16 host counts (descending), interpolating
// the anchor coverage curve and exactly summing to cfg.Size.
func slash16Sizes(cfg Config) []int {
	n := cfg.Slash16s
	anchors := cfg.Anchors
	if len(anchors) == 0 {
		anchors = []CoverageAnchor{{K: n, Share: 1.0}}
	}
	// Build the target cumulative share at every rank by piecewise-linear
	// interpolation between anchors (constant per-/16 density within each
	// segment). This keeps the size profile monotone non-increasing —
	// required for the anchors to equal the greedy top-k coverage — and
	// hits each anchor exactly.
	cum := func(k int) float64 {
		if k <= 0 {
			return 0
		}
		if k >= anchors[len(anchors)-1].K {
			return anchors[len(anchors)-1].Share
		}
		prevK, prevS := 0, 0.0
		for _, a := range anchors {
			if k <= a.K {
				t := float64(k-prevK) / float64(a.K-prevK)
				return prevS + t*(a.Share-prevS)
			}
			prevK, prevS = a.K, a.Share
		}
		return 1
	}
	// Largest-remainder rounding against the cumulative host curve, then a
	// 1-host floor (every counted /16 contains at least one vulnerable host
	// by definition) repaid by the densest /16s.
	sizes := make([]int, n)
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, n)
	total := 0
	for i := range sizes {
		exact := (cum(i+1) - cum(i)) * float64(cfg.Size)
		sizes[i] = int(exact)
		total += sizes[i]
		fracs[i] = frac{idx: i, rem: exact - math.Floor(exact)}
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; i < cfg.Size-total; i++ {
		sizes[fracs[i%n].idx]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	// The densest /16 repays the floor while it can spare a host, then the
	// next densest: a small Size spread over many /16s (the paper's anchors
	// at 20,000 hosts) floors more /16s than the head holds. Size ≥ n keeps
	// a /16 with a host to spare until every /16 has one.
	j := 0
	for i := n - 1; i >= 0 && sizes[i] == 0; i-- {
		sizes[i] = 1
		for sizes[j] <= 1 {
			j++
		}
		sizes[j]--
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// chooseSlash8s picks the populated /8 networks: public, unreserved,
// deterministic given the RNG, optionally forcing 192/8 in.
func chooseSlash8s(cfg Config, r *rng.Xoshiro) []uint32 {
	var candidates []uint32
	for o := uint32(1); o <= 223; o++ {
		a := ipv4.Addr(o << 24)
		if a.IsReserved() || a.IsLoopback() || o == 10 {
			continue
		}
		candidates = append(candidates, o)
	}
	picked := make(map[uint32]bool, cfg.Slash8s)
	if cfg.Include192Slash8 {
		picked[192] = true
	}
	for len(picked) < cfg.Slash8s {
		picked[candidates[r.Intn(len(candidates))]] = true
	}
	out := make([]uint32, 0, cfg.Slash8s)
	for o := range picked {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// publicSlash16s counts the /16s of /8 o outside RFC 1918 private space
// (chooseSlash8s already excludes 10/8 wholesale).
func publicSlash16s(o uint32) int {
	switch o {
	case 172:
		return 256 - 16 // 172.16.0.0/12
	case 192:
		return 255 // 192.168.0.0/16
	}
	return 256
}

// assignSlash16s maps each ranked /16 slot to a concrete /16 network. The
// densest /16s are dealt round-robin across a "core" subset of the /8s so
// that a top-20 subset of /8s carries the bulk of the population, as in the
// paper's measurement.
func assignSlash16s(sizes []int, slash8s []uint32, r *rng.Xoshiro) []uint32 {
	core := len(slash8s)
	if core > 20 {
		core = 20
	}
	var used [1 << 16 / 64]uint64 // bit net marks /16 network net taken
	out := make([]uint32, 0, len(sizes))
	// The second octet walk is randomized per /8 for realism. Both tables
	// are indexed by first octet.
	var perms [256][]int
	var next [256]int
	for _, o := range slash8s {
		perms[o] = r.Shuffle(256)
	}
	take := func(o uint32) (uint32, bool) {
		for next[o] < 256 {
			second := perms[o][next[o]]
			next[o]++
			net := o<<8 | uint32(second)
			// RFC 1918 /16s (172.16–31, 192.168) are not routable host
			// space: the exact driver drops probes to private destinations,
			// and 192.168/16 is the NAT sites' own address pool.
			if used[net>>6]&(1<<(net&63)) == 0 && !ipv4.Addr(net<<16).IsPrivate() {
				used[net>>6] |= 1 << (net & 63)
				return net, true
			}
		}
		return 0, false
	}
	for i := range sizes {
		var pool []uint32
		if i < len(sizes)*core/len(slash8s) || len(slash8s) == core {
			pool = slash8s[:core]
		} else {
			pool = slash8s[core:]
		}
		// Round-robin with fallback to any /8 that still has room.
		assigned := false
		for try := 0; try < len(pool); try++ {
			o := pool[(i+try)%len(pool)]
			if net, ok := take(o); ok {
				out = append(out, net)
				assigned = true
				break
			}
		}
		if !assigned {
			for _, o := range slash8s {
				if net, ok := take(o); ok {
					out = append(out, net)
					assigned = true
					break
				}
			}
		}
		if !assigned {
			panic("population: ran out of /16 slots (validated in Synthesize)")
		}
	}
	return out
}

// Size returns the number of hosts.
func (p *Population) Size() int { return len(p.addrs) }

// Host returns host i.
func (p *Population) Host(i int) Host {
	if i < p.public {
		return Host{Addr: p.addrs[i], Site: NoSite}
	}
	return Host{Addr: p.addrs[i], Site: int(p.site[i-p.public])}
}

// Hosts returns a copy of all hosts, in id order.
func (p *Population) Hosts() []Host {
	out := make([]Host, len(p.addrs))
	for i := range out {
		out[i] = p.Host(i)
	}
	return out
}

// Addrs returns a copy of every host's own-address (public hosts only when
// publicOnly is set), in id order.
func (p *Population) Addrs(publicOnly bool) []ipv4.Addr {
	if publicOnly {
		return slices.Clone(p.addrs[:p.public])
	}
	return slices.Clone(p.addrs)
}

// Region returns the hosts of one NAT site, or the public hosts for
// NoSite: their own-addresses, strictly ascending, and the id of the
// first, so host lo+i has address addrs[i]. addrs aliases the
// population's storage: it must not be modified, and AssignNAT
// invalidates it. A site id with no hosts yields an empty region.
func (p *Population) Region(site int) (addrs []ipv4.Addr, lo int) {
	if site == NoSite {
		return p.addrs[:p.public:p.public], 0
	}
	first := func(s int) int {
		return p.public + sort.Search(len(p.site), func(i int) bool { return int(p.site[i]) >= s })
	}
	lo, hi := first(site), first(site+1)
	return p.addrs[lo:hi:hi], lo
}

// AssignNAT rehomes a fraction of hosts behind NATs: each chosen host gets a
// fresh private address in 192.168.0.0/16 and a site id. Hosts are grouped
// into sites of hostsPerSite (the tail site may be smaller); hostsPerSite
// ≤ 0 puts every NAT'd host in one shared site — the paper's Section 5.3
// model, where 192.168/16 behaves as one private network that the worm can
// traverse internally. The selection is uniform over hosts and
// deterministic in seed. Sites are numbered after any a previous call
// opened, and the hosts are re-laid out in canonical order, which moves
// host ids.
func (p *Population) AssignNAT(fraction float64, hostsPerSite int, seed uint64) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("population: NAT fraction %v out of [0,1]", fraction)
	}
	r := rng.NewXoshiro(seed)
	size := len(p.addrs)
	n := int(math.Round(fraction * float64(size)))
	if n == 0 {
		return nil
	}
	if hostsPerSite <= 0 {
		hostsPerSite = n
	}
	if hostsPerSite > 1<<16 {
		return errors.New("population: a NAT site cannot exceed the 192.168/16 address space")
	}
	chosen := r.SampleWithoutReplacement(size, n)
	sort.Ints(chosen)
	// The chosen hosts, in id order, fill sites of hostsPerSite; each draws
	// a private address not yet used in its site.
	natAddrs := make([]ipv4.Addr, n)
	natSite := make([]int32, n)
	// used marks the offsets into 192.168/16 drawn in the current site; a
	// new site unmarks the previous site's addresses.
	var used [1 << 16 / 64]uint64
	for i := range natAddrs {
		if i > 0 && i%hostsPerSite == 0 {
			for _, a := range natAddrs[i-hostsPerSite : i] {
				off := a - natSpace.First()
				used[off>>6] &^= 1 << (off & 63)
			}
		}
		off := r.Uint64n(natSpace.NumAddrs())
		for used[off>>6]&(1<<(off&63)) != 0 {
			off = r.Uint64n(natSpace.NumAddrs())
		}
		used[off>>6] |= 1 << (off & 63)
		natAddrs[i] = natSpace.Nth(off)
		natSite[i] = int32(p.sites + i/hostsPerSite)
	}
	for lo := 0; lo < n; lo += hostsPerSite {
		slices.Sort(natAddrs[lo:min(lo+hostsPerSite, n)])
	}
	// Unchosen hosts keep their canonical order, compacted in place. The
	// new sites come after every existing one, so appending them keeps the
	// order canonical.
	kept, public := 0, 0
	site := make([]int32, 0, size-p.public+n)
	for id, c := 0, 0; id < size; id++ {
		if c < n && chosen[c] == id {
			c++
			continue
		}
		p.addrs[kept] = p.addrs[id]
		kept++
		if id < p.public {
			public++
		} else {
			site = append(site, p.site[id-p.public])
		}
	}
	copy(p.addrs[kept:], natAddrs)
	p.site = append(site, natSite...)
	p.public = public
	p.sites += (n + hostsPerSite - 1) / hostsPerSite
	return nil
}

// Slash8Histogram returns host counts per populated /8, descending.
func (p *Population) Slash8Histogram() []SlashCount {
	return p.histogram(func(a ipv4.Addr) uint32 { return a.Slash8() })
}

// Slash16Histogram returns host counts per populated /16, descending.
// NAT'd hosts count under 192.168/16.
func (p *Population) Slash16Histogram() []SlashCount {
	return p.histogram(func(a ipv4.Addr) uint32 { return a.Slash16() })
}

// SlashCount pairs a network index with its host count.
type SlashCount struct {
	Network uint32
	Count   int
}

func (p *Population) histogram(key func(ipv4.Addr) uint32) []SlashCount {
	counts := make(map[uint32]int)
	for _, a := range p.addrs {
		counts[key(a)]++
	}
	out := make([]SlashCount, 0, len(counts))
	for net, c := range counts {
		out = append(out, SlashCount{Network: net, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Network < out[j].Network
	})
	return out
}

// TopSlash8s returns the k most-populated /8 networks.
func (p *Population) TopSlash8s(k int) []uint32 {
	hist := p.Slash8Histogram()
	if k > len(hist) {
		k = len(hist)
	}
	out := make([]uint32, k)
	for i := 0; i < k; i++ {
		out[i] = hist[i].Network
	}
	return out
}
