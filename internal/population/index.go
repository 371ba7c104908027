package population

import (
	"fmt"
	"math/bits"

	"repro/internal/ipv4"
)

// filterBitsPerHost sizes the public filter: one hash into 16 bits per
// public host leaves about one miss in sixteen to reach the directory.
const filterBitsPerHost = 16

// Index resolves own-addresses to host ids. It is built once from the
// population's canonical order and never written after, so concurrent
// lookups need no synchronization. It is not cached on the Population:
// only the probe-exact driver resolves addresses, and it builds one per
// run. Like Region, an Index aliases the population's storage, so
// AssignNAT invalidates it.
//
// A public address names at most one host: Synthesize never places public
// hosts in RFC 1918 space, and NAT'd hosts live only in 192.168/16. A
// miss, the common case for a scanner, costs one bit test in a filter of
// about 2 bytes per public host; a filter hit goes through a /16
// directory to a binary search of that /16's public hosts. A private
// address names every NAT'd host that drew it, one per site that did.
//
// Memory: 2 bytes per public host for the filter, 4 per populated /16 for
// the directory, 8 per NAT'd host, and about 13 KB of fixed tables.
type Index struct {
	pub    []ipv4.Addr // Region(NoSite): public host i has address pub[i]
	filter []uint64    // bit h(a) set for every public address a
	nbits  uint64      // filter length in bits

	occ   [1 << 16 / 64]uint64 // bit n set when /16 n holds a public host
	rank  [1 << 16 / 64]uint32 // populated /16s below occ word w
	start []uint32             // start[r]: first id of the r-th populated /16; one more entry ends the last

	natAddr []ipv4.Addr // NAT'd addresses sorted by (address, id)
	natID   []int32     // natID[i] is the host holding natAddr[i]
	natDir  [257]uint32 // natDir[o]: first natAddr entry at or above 192.168.o.0
}

// NewIndex builds the address index of p.
func NewIndex(p *Population) *Index {
	x := &Index{pub: p.addrs[:p.public:p.public]}

	x.nbits = min(uint64(len(x.pub))*filterBitsPerHost, 1<<32)
	x.filter = make([]uint64, max(1, (x.nbits+63)/64))
	for _, a := range x.pub {
		b := x.filterBit(a)
		x.filter[b>>6] |= 1 << (b & 63)
		n := a.Slash16()
		x.occ[n>>6] |= 1 << (n & 63)
	}
	populated := uint32(0)
	for w, o := range x.occ {
		x.rank[w] = populated
		populated += uint32(bits.OnesCount64(o))
	}
	// The public hosts are address-sorted, so each populated /16 is one
	// contiguous run, met in /16 order.
	x.start = make([]uint32, 0, populated+1)
	for i, a := range x.pub {
		if i == 0 || a.Slash16() != x.pub[i-1].Slash16() {
			x.start = append(x.start, uint32(i))
		}
	}
	x.start = append(x.start, uint32(len(x.pub)))

	// The NAT'd suffix, sorted by (address, id) with a two-pass stable
	// radix sort on the low 16 address bits (the high 16 are 192.168),
	// fed in id order. Pass one scatters ids by the last octet into
	// natAddr, used as scratch; pass two scatters them by the third octet
	// into natID, and its counts are the /24 directory.
	base := p.public
	nat := p.addrs[base:]
	x.natAddr = make([]ipv4.Addr, len(nat))
	x.natID = make([]int32, len(nat))
	var low [257]uint32
	for _, a := range nat {
		if !natSpace.Contains(a) {
			panic(fmt.Sprintf("population: NAT'd address %v outside %v", a, natSpace))
		}
		low[a&0xff+1]++
		x.natDir[a>>8&0xff+1]++
	}
	for o := 1; o <= 256; o++ {
		low[o] += low[o-1]
		x.natDir[o] += x.natDir[o-1]
	}
	for i, a := range nat {
		x.natAddr[low[a&0xff]] = ipv4.Addr(base + i)
		low[a&0xff]++
	}
	next := x.natDir
	for _, id := range x.natAddr {
		o := nat[int(id)-base] >> 8 & 0xff
		x.natID[next[o]] = int32(id)
		next[o]++
	}
	for i, id := range x.natID {
		x.natAddr[i] = p.addrs[id]
	}
	return x
}

// filterBit hashes a into [0, nbits): a Fibonacci multiply mixes the
// address, and its high 32 bits scale onto the filter.
func (x *Index) filterBit(a ipv4.Addr) uint64 {
	return (uint64(a) * 0x9E3779B97F4A7C15 >> 32) * x.nbits >> 32
}

// Public returns the id of the public host whose address is a.
func (x *Index) Public(a ipv4.Addr) (int, bool) {
	b := x.filterBit(a)
	if x.filter[b>>6]&(1<<(b&63)) == 0 {
		return 0, false
	}
	n := a.Slash16()
	w, bit := n>>6, uint64(1)<<(n&63)
	if x.occ[w]&bit == 0 {
		return 0, false
	}
	r := x.rank[w] + uint32(bits.OnesCount64(x.occ[w]&(bit-1)))
	lo, end := x.start[r], x.start[r+1]
	for hi := end; lo < hi; {
		mid := (lo + hi) >> 1
		if x.pub[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && x.pub[lo] == a {
		return int(lo), true
	}
	return 0, false
}

// Private returns the ids of the NAT'd hosts whose private address is a,
// ascending: one per site that drew a. The slice aliases the index and
// must not be modified.
func (x *Index) Private(a ipv4.Addr) []int32 {
	if !natSpace.Contains(a) {
		return nil
	}
	o := a >> 8 & 0xff
	lo, end := x.natDir[o], x.natDir[o+1]
	for hi := end; lo < hi; {
		mid := (lo + hi) >> 1
		if x.natAddr[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi := lo
	for hi < end && x.natAddr[hi] == a {
		hi++
	}
	return x.natID[lo:hi:hi]
}
