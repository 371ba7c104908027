package population

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

// lookup returns every id whose own-address is a, ascending: the public
// match first (public ids precede NAT'd ones), then the NAT'd matches.
func lookup(x *Index, a ipv4.Addr) []int {
	var ids []int
	if id, ok := x.Public(a); ok {
		ids = append(ids, id)
	}
	for _, id := range x.Private(a) {
		ids = append(ids, int(id))
	}
	return ids
}

// TestIndexMatchesMap checks the index against the own-address → ids map
// it replaced, built here from Hosts: same ids, same order, for every
// host address, its neighbours, random addresses in populated and empty
// /16s and in the NAT space, and both ends of the address space.
func TestIndexMatchesMap(t *testing.T) {
	synth := func(t *testing.T, cfg Config) *Population {
		t.Helper()
		p, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	nat := func(t *testing.T, p *Population, fraction float64, perSite int, seed uint64) {
		t.Helper()
		if err := p.AssignNAT(fraction, perSite, seed); err != nil {
			t.Fatal(err)
		}
	}
	dense := Config{Size: 20000, Slash8s: 3, Slash16s: 6, Seed: 5}
	sparse := Config{Size: 3000, Slash8s: 40, Slash16s: 3000, Seed: 6}
	cases := []struct {
		name  string
		build func(t *testing.T) *Population
	}{
		{"codered", func(t *testing.T) *Population { return synth(t, DefaultCodeRedII(1)) }},
		{"dense", func(t *testing.T) *Population { return synth(t, dense) }},
		{"sparse", func(t *testing.T) *Population { return synth(t, sparse) }},
		{"one-site", func(t *testing.T) *Population {
			p := synth(t, dense)
			nat(t, p, 0.3, 0, 7)
			return p
		}},
		{"all-natted", func(t *testing.T) *Population {
			p := synth(t, sparse)
			nat(t, p, 1, -1, 8)
			return p
		}},
	}
	for perSite := 2; perSite <= 6; perSite++ {
		cases = append(cases, struct {
			name  string
			build func(t *testing.T) *Population
		}{fmt.Sprintf("two-calls-%d-per-site", perSite), func(t *testing.T) *Population {
			p := synth(t, Config{Size: 8000, Slash8s: 4, Slash16s: 40, Seed: uint64(perSite)})
			nat(t, p, 0.25, perSite, 11)
			nat(t, p, 0.2, perSite, 12)
			return p
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			// The reference: each host's own-address, as a uint32, to
			// its ids in id order.
			ref := make(map[uint32][]int, p.Size())
			populated := make(map[uint32]bool)
			for id, h := range p.Hosts() {
				ref[uint32(h.Addr)] = append(ref[uint32(h.Addr)], id)
				populated[h.Addr.Slash16()] = true
			}
			x := NewIndex(p)
			check := func(a ipv4.Addr) {
				t.Helper()
				if got, want := lookup(x, a), ref[uint32(a)]; !slices.Equal(got, want) {
					t.Fatalf("lookup(%v) = %v, want %v", a, got, want)
				}
			}
			check(0)
			check(ipv4.MaxAddr)
			for i := 0; i < p.Size(); i++ {
				a := p.Host(i).Addr
				check(a - 1)
				check(a)
				check(a + 1)
			}
			r := rng.NewXoshiro(uint64(p.Size()))
			for range 20000 {
				// An address in a populated /16, one in 192.168/16, and a
				// random one, which is almost always in an empty /16.
				host := p.Host(r.Intn(p.Size())).Addr
				check(host&^0xffff | ipv4.Addr(r.Uint64n(1<<16)))
				check(natSpace.Nth(r.Uint64n(natSpace.NumAddrs())))
				a := ipv4.Addr(r.Uint64n(1 << 32))
				if !populated[a.Slash16()] {
					check(a)
				}
			}
		})
	}
}

// TestNewIndexBytesPerHost bounds what NewIndex allocates on a 10⁶-host
// population with a NAT'd tenth: 4 bytes per public host, 8 per NAT'd
// host, and 16 KB of fixed tables. A per-host map breaks the bound: the
// map[Addr][]int this index replaced allocated ~93 bytes per host here.
func TestNewIndexBytesPerHost(t *testing.T) {
	p, err := Synthesize(InternetScale(1_000_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignNAT(0.1, 4, 2); err != nil {
		t.Fatal(err)
	}
	pub, _ := p.Region(NoSite)
	public, natted := uint64(len(pub)), uint64(p.Size()-len(pub))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := NewIndex(p)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	got := after.TotalAlloc - before.TotalAlloc
	bound := 4*public + 8*natted + 16<<10
	t.Logf("NewIndex allocates %d bytes for %d public and %d NAT'd hosts (bound %d)", got, public, natted, bound)
	if got > bound {
		t.Errorf("NewIndex allocates %d bytes, want ≤ %d", got, bound)
	}
}
