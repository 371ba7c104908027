package population

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
)

// hostSetDigest hashes a population's hosts as a set: every (Addr, Site)
// pair, sorted, so the digest ignores host order.
func hostSetDigest(p *Population) string {
	hosts := p.Hosts()
	slices.SortFunc(hosts, func(a, b Host) int {
		if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	})
	h := sha256.New()
	buf := make([]byte, 0, 12)
	for _, x := range hosts {
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(x.Addr))
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(x.Site)))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthesizeHostSetPinned pins the set of hosts Synthesize draws,
// independent of the order it lays them out in. The digests were captured
// while hosts were still emitted in draw order, before canonical order: a
// layout change must be a pure permutation, consuming the RNG exactly as
// before, or this fails.
func TestSynthesizeHostSetPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"codered2", DefaultCodeRedII(1), "0e963a29439319b4ffc18defe1571504b0781e4f4ebdfbdcfdb07bcf1662db58"},
		{"internet-200k", InternetScale(200_000, 1), "c08c8f88513141341f1d20db7f8f6ac881da6277aa2f943bd474c75c067d5882"},
	} {
		p, err := Synthesize(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hostSetDigest(p); got != tc.want {
			t.Errorf("%s: host-set digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// checkCanonical fails unless p is in canonical order — public hosts
// strictly ascending, then every site as one block, sites ascending, each
// strictly ascending — and every accessor agrees with that order host by
// host.
func checkCanonical(t *testing.T, p *Population) {
	t.Helper()
	hosts := p.Hosts()
	all, pubOnly := p.Addrs(false), p.Addrs(true)
	if len(hosts) != p.Size() || len(all) != p.Size() {
		t.Fatalf("Hosts %d, Addrs(false) %d, Size %d", len(hosts), len(all), p.Size())
	}
	x := NewIndex(p)
	at := 0
	region := func(site int) {
		addrs, lo := p.Region(site)
		if lo != at {
			t.Fatalf("site %d starts at id %d, want %d (not contiguous or not ascending)", site, lo, at)
		}
		for i, a := range addrs {
			id := lo + i
			if i > 0 && a <= addrs[i-1] {
				t.Fatalf("site %d: address %v at id %d not above %v", site, a, id, addrs[i-1])
			}
			want := Host{Addr: a, Site: site}
			if got := p.Host(id); got != want {
				t.Fatalf("Host(%d) = %+v, Region(%d) says %+v", id, got, site, want)
			}
			if hosts[id] != want || all[id] != a {
				t.Fatalf("id %d: Hosts %+v, Addrs(false) %v, Region(%d) %+v", id, hosts[id], all[id], site, want)
			}
			ids := lookup(x, a)
			if !slices.Contains(ids, id) {
				t.Fatalf("index lookup of %v = %v misses id %d", a, ids, id)
			}
			for _, j := range ids {
				if p.Host(j).Addr != a {
					t.Fatalf("index lookup of %v returned id %d holding %v", a, j, p.Host(j).Addr)
				}
			}
		}
		at += len(addrs)
	}
	region(NoSite)
	if !slices.Equal(pubOnly, all[:at]) {
		t.Fatalf("Addrs(true) is not the %d-host public prefix", at)
	}
	for s := 0; s < p.sites; s++ {
		region(s)
	}
	if at != p.Size() {
		t.Fatalf("regions cover %d of %d hosts", at, p.Size())
	}
	// Region hands out the population's storage, not a copy.
	if allocs := testing.AllocsPerRun(10, func() { p.Region(NoSite) }); allocs != 0 {
		t.Errorf("Region allocates %v times per call", allocs)
	}
}

func TestCanonicalOrder(t *testing.T) {
	synth := func(t *testing.T) *Population {
		cfg := DefaultCodeRedII(3)
		cfg.Size, cfg.Slash16s = 20000, 800
		p, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type nat struct {
		fraction float64
		perSite  int
	}
	for _, tc := range []struct {
		name  string
		nats  []nat
		sites int
	}{
		{"synthesize", nil, 0},
		{"nat-fraction-0", []nat{{0, 4}}, 0},
		{"nat-once", []nat{{0.3, 4}}, 1500},
		{"nat-twice", []nat{{0.3, 4}, {0.2, 16}}, 1500 + 250},
		{"nat-fraction-1", []nat{{1, 64}}, 313},
		{"nat-shared-site", []nat{{0.15, 0}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := synth(t)
			for i, n := range tc.nats {
				if err := p.AssignNAT(n.fraction, n.perSite, uint64(11+i)); err != nil {
					t.Fatal(err)
				}
			}
			if p.sites != tc.sites {
				t.Errorf("%d sites, want %d", p.sites, tc.sites)
			}
			checkCanonical(t, p)
		})
	}
}
