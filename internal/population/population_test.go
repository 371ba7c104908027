package population

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/worm"
)

func TestSynthesizeValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero-size", cfg: Config{Size: 0, Slash8s: 4, Slash16s: 8}},
		{name: "no-slash8s", cfg: Config{Size: 10, Slash8s: 0, Slash16s: 4}},
		{name: "slash16s-below-slash8s", cfg: Config{Size: 10, Slash8s: 4, Slash16s: 2}},
		{name: "slash16s-overflow", cfg: Config{Size: 100000, Slash8s: 1, Slash16s: 300}},
		{name: "more-16s-than-hosts", cfg: Config{Size: 5, Slash8s: 2, Slash16s: 6}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Synthesize(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestSynthesizeMatchesPaperStatistics(t *testing.T) {
	p, err := Synthesize(DefaultCodeRedII(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 134586 {
		t.Fatalf("size = %d, want 134586", got)
	}
	if got := len(p.Slash8Histogram()); got != 47 {
		t.Errorf("populated /8s = %d, want 47", got)
	}
	if got := len(p.Slash16Histogram()); got != 4481 {
		t.Errorf("populated /16s = %d, want 4481", got)
	}
	// Top 20 /8s hold ≈94% of hosts.
	var top20 int
	for _, sc := range p.Slash8Histogram()[:20] {
		top20 += sc.Count
	}
	if got := float64(top20) / float64(len(p.addrs)); got < 0.90 || got > 0.99 {
		t.Errorf("top-20 /8 share = %.3f, want ≈0.94", got)
	}
	// 192/8 is populated (required by the CRII experiments).
	found := false
	for _, sc := range p.Slash8Histogram() {
		if sc.Network == 192 {
			found = true
		}
	}
	if !found {
		t.Error("192/8 not populated")
	}
	// All addresses distinct (canonical order ascends) and unreserved.
	hosts := p.Hosts()
	for i, h := range hosts {
		if i > 0 && h.Addr <= hosts[i-1].Addr {
			t.Fatalf("address %v at id %d not above %v: duplicate or out of order", h.Addr, i, hosts[i-1].Addr)
		}
		if h.Addr.IsReserved() || h.Addr.IsLoopback() {
			t.Fatalf("reserved address %v in population", h.Addr)
		}
		if h.IsNATed() {
			t.Fatalf("NAT site assigned before AssignNAT")
		}
	}
}

func TestSynthesizeHitListCoverageAnchors(t *testing.T) {
	// The greedy /16 hit-list coverage must land near the paper's
	// 10→10.60%, 100→50.49%, 1000→91.33% anchors.
	p, err := Synthesize(DefaultCodeRedII(1))
	if err != nil {
		t.Fatal(err)
	}
	addrs := p.Addrs(false)
	tests := []struct {
		k    int
		want float64
	}{
		{k: 10, want: 0.1060},
		{k: 100, want: 0.5049},
		{k: 1000, want: 0.9133},
		{k: 4481, want: 1.0},
	}
	for _, tt := range tests {
		_, cover := worm.BuildGreedySlash16HitList(addrs, tt.k)
		if math.Abs(cover-tt.want) > 0.02 {
			t.Errorf("top-%d coverage = %.4f, want %.4f±0.02", tt.k, cover, tt.want)
		}
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	cfg := DefaultCodeRedII(7)
	cfg.Size = 2000
	cfg.Slash16s = 500
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ah, bh := a.Hosts(), b.Hosts()
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatal("same seed produced different populations")
		}
	}
	cfg.Seed = 8
	c, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i, h := range c.Hosts() {
		if h == ah[i] {
			same++
		}
	}
	if same == len(ah) {
		t.Error("different seeds produced identical populations")
	}
}

func TestAssignNAT(t *testing.T) {
	cfg := DefaultCodeRedII(3)
	cfg.Size = 10000
	cfg.Slash16s = 400
	p, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignNAT(0.15, 4, 99); err != nil {
		t.Fatal(err)
	}
	private := ipv4.MustParsePrefix("192.168.0.0/16")
	var natted int
	siteSizes := make(map[int]int)
	for _, h := range p.Hosts() {
		if !h.IsNATed() {
			if private.Contains(h.Addr) {
				t.Fatalf("public host with private address %v", h.Addr)
			}
			continue
		}
		natted++
		if !private.Contains(h.Addr) {
			t.Fatalf("NAT'd host with public address %v", h.Addr)
		}
		siteSizes[h.Site]++
	}
	if want := 1500; natted != want {
		t.Errorf("NAT'd hosts = %d, want %d", natted, want)
	}
	for site, size := range siteSizes {
		if size > 4 {
			t.Errorf("site %d has %d hosts, want ≤4", site, size)
		}
	}
	if p.sites != len(siteSizes) {
		t.Errorf("Sites() = %d, want %d", p.sites, len(siteSizes))
	}

	// The index resolves a private address to every host sharing it.
	h0 := p.Host(p.Size() - 1)
	ids := lookup(NewIndex(p), h0.Addr)
	found := false
	for _, id := range ids {
		if p.Host(id) == h0 {
			found = true
		}
	}
	if !found {
		t.Error("index lookup lost a host")
	}
}

func TestAssignNATValidation(t *testing.T) {
	p, err := Synthesize(Config{Size: 100, Slash8s: 2, Slash16s: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignNAT(-0.1, 4, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := p.AssignNAT(1.5, 4, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if err := p.AssignNAT(0, 4, 1); err != nil {
		t.Errorf("zero fraction rejected: %v", err)
	}
}

func TestAssignNATSingleSite(t *testing.T) {
	p, err := Synthesize(Config{Size: 1000, Slash8s: 3, Slash16s: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignNAT(0.3, 0, 2); err != nil {
		t.Fatal(err)
	}
	sites := make(map[int]int)
	for _, h := range p.Hosts() {
		if h.IsNATed() {
			sites[h.Site]++
		}
	}
	if len(sites) != 1 {
		t.Fatalf("single-site mode produced %d sites", len(sites))
	}
	if sites[0] != 300 {
		t.Errorf("site holds %d hosts, want 300", sites[0])
	}
}

func TestAddrsPublicOnly(t *testing.T) {
	p, err := Synthesize(Config{Size: 1000, Slash8s: 3, Slash16s: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignNAT(0.2, 8, 2); err != nil {
		t.Fatal(err)
	}
	pub := p.Addrs(true)
	all := p.Addrs(false)
	if len(all) != 1000 {
		t.Errorf("Addrs(false) = %d, want 1000", len(all))
	}
	if len(pub) != 800 {
		t.Errorf("Addrs(true) = %d, want 800", len(pub))
	}
	for _, a := range pub {
		if a.IsPrivate() {
			t.Fatalf("public list contains private %v", a)
		}
	}
}

func TestTopSlash8s(t *testing.T) {
	p, err := Synthesize(Config{Size: 5000, Slash8s: 5, Slash16s: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	top := p.TopSlash8s(3)
	if len(top) != 3 {
		t.Fatalf("TopSlash8s(3) returned %d", len(top))
	}
	hist := p.Slash8Histogram()
	for i, net := range top {
		if hist[i].Network != net {
			t.Errorf("TopSlash8s[%d] = %d, want %d", i, net, hist[i].Network)
		}
	}
	// Asking for more than exist clamps.
	if got := p.TopSlash8s(100); len(got) != 5 {
		t.Errorf("TopSlash8s(100) = %d entries, want 5", len(got))
	}
}

// TestSynthesizeAllocsProportionalToSlash16s pins the regression the
// internet-scale work fixed: host-address dedup used to go through a
// population-sized map, so transient allocation grew with the host count.
// The per-/16 bitset makes it grow with the /16 count instead —
// quadrupling the population at a fixed /16 count must not meaningfully
// change the allocation count.
func TestSynthesizeAllocsProportionalToSlash16s(t *testing.T) {
	measure := func(size int) float64 {
		cfg := Config{Size: size, Slash8s: 10, Slash16s: 400, Seed: 6}
		return testing.AllocsPerRun(5, func() {
			if _, err := Synthesize(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(20000), measure(80000)
	if big > small+32 {
		t.Errorf("allocations grew with population size: %.0f at 20k hosts vs %.0f at 80k", small, big)
	}
}

func TestSynthesizeSlash16Capacity(t *testing.T) {
	// A /16 holds 65,536 addresses; a config that forces more hosts than
	// that into the densest /16 must be rejected up front, not spin forever
	// rejecting duplicate draws.
	_, err := Synthesize(Config{Size: 70000, Slash8s: 1, Slash16s: 1, Seed: 1})
	if err == nil {
		t.Fatal("over-capacity /16 accepted")
	}
	if !strings.Contains(err.Error(), "exceed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSynthesizeFloorExceedingHead(t *testing.T) {
	// The paper's anchors at 20,000 hosts leave ~1,700 of the 4,481 /16s
	// below one host, more than the densest /16's 212 can repay. Every /16
	// must still get a host and the sizes must still sum to Size.
	cfg := DefaultCodeRedII(1)
	cfg.Size = 20000
	sizes := slash16Sizes(cfg)
	sum := 0
	for i, n := range sizes {
		if n < 1 || (i > 0 && n > sizes[i-1]) {
			t.Fatalf("size %d at rank %d: want ≥ 1 and non-increasing", n, i)
		}
		sum += n
	}
	if sum != cfg.Size {
		t.Fatalf("sizes sum to %d, want %d", sum, cfg.Size)
	}
	p, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != cfg.Size || len(p.Slash16Histogram()) != cfg.Slash16s {
		t.Errorf("%d hosts in %d /16s, want %d in %d", p.Size(), len(p.Slash16Histogram()), cfg.Size, cfg.Slash16s)
	}
}

func TestSynthesizeAvoidsPrivateSlash16s(t *testing.T) {
	// Non-NAT hosts must all be routable: the exact driver drops probes to
	// RFC 1918 destinations, so a "public" host at 172.30.x.y or 192.168.x.y
	// is structurally unreachable there while the fast driver's rate models
	// still count it (xcheck seed 1783 caught exactly this divergence).
	// Sweeping every /16 of every /8 across several seeds forces the
	// assignment walk through the private blocks.
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := Synthesize(Config{
			Size:             3 * 256,
			Slash8s:          3,
			Slash16s:         3 * 240,
			Include192Slash8: true,
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Addrs(false) {
			if a.IsPrivate() {
				t.Fatalf("seed %d: synthesized host %v is in private space", seed, a)
			}
		}
	}
	// The capacity check must account for the excluded private /16s instead
	// of letting the assignment walk panic: 256 /16s never fit in 172/8 or
	// 192/8 alone, whatever the other /8s absorb.
	if _, err := Synthesize(Config{Size: 3 * 256, Slash8s: 3, Slash16s: 3 * 256, Include192Slash8: true, Seed: 1}); err == nil {
		t.Error("config exceeding public /16 capacity accepted")
	}
}

func TestInternetScale(t *testing.T) {
	cfg := InternetScale(300000, 11)
	p, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 300000 {
		t.Fatalf("size = %d, want 300000", got)
	}
	if got := len(p.Slash16Histogram()); got != cfg.Slash16s {
		t.Errorf("populated /16s = %d, want %d", got, cfg.Slash16s)
	}
	// Densest /16 must respect address capacity with lots of headroom.
	h16 := p.Slash16Histogram()
	if h16[0].Count > 1<<16 {
		t.Errorf("densest /16 holds %d hosts", h16[0].Count)
	}
	// Head-heavy shape: the top tenth of /16s holds about half the hosts.
	head := 0
	for _, sc := range h16[:cfg.Slash16s/10] {
		head += sc.Count
	}
	if share := float64(head) / 300000; share < 0.4 || share > 0.6 {
		t.Errorf("top-decile /16 share = %.3f, want ≈0.5", share)
	}
	// 192/8 present for the CRII NAT experiments.
	found := false
	for _, sc := range p.Slash8Histogram() {
		if sc.Network == 192 {
			found = true
		}
	}
	if !found {
		t.Error("192/8 not populated")
	}
	// Deterministic.
	q, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, qh := p.Hosts(), q.Hosts()
	for i := range ph {
		if ph[i] != qh[i] {
			t.Fatal("same InternetScale config produced different populations")
		}
	}
}
