package detect

import (
	"slices"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

func mustPrefixes(cidrs ...string) []ipv4.Prefix {
	out := make([]ipv4.Prefix, len(cidrs))
	for i, c := range cidrs {
		out[i] = ipv4.MustParsePrefix(c)
	}
	return out
}

func TestThresholdFleetAlerts(t *testing.T) {
	f := MustNewThresholdFleet(mustPrefixes("10.0.0.0/24", "10.0.1.0/24"), 5)
	hit := ipv4.MustParseAddr("10.0.0.7")
	for i := 0; i < 4; i++ {
		f.RecordHit(hit)
	}
	if f.NumAlerted() != 0 {
		t.Fatal("alerted below threshold")
	}
	f.RecordHit(hit)
	if f.NumAlerted() != 1 {
		t.Fatal("did not alert at threshold")
	}
	// Further hits do not double-count the alert.
	f.RecordHit(hit)
	if f.NumAlerted() != 1 {
		t.Fatal("alert counted twice")
	}
	if got := f.AlertedFraction(); got != 0.5 {
		t.Errorf("AlertedFraction = %v, want 0.5", got)
	}
	if got := f.TouchedFraction(); got != 0.5 {
		t.Errorf("TouchedFraction = %v, want 0.5", got)
	}
}

func TestThresholdFleetIgnoresOutside(t *testing.T) {
	f := MustNewThresholdFleet(mustPrefixes("10.0.0.0/24"), 1)
	f.RecordHit(ipv4.MustParseAddr("10.0.1.0"))
	f.RecordHit(ipv4.MustParseAddr("9.255.255.255"))
	if f.NumAlerted() != 0 || f.TouchedFraction() != 0 {
		t.Error("out-of-fleet hits recorded")
	}
}

func TestThresholdFleetValidation(t *testing.T) {
	if _, err := NewThresholdFleet(nil, 5); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewThresholdFleet(mustPrefixes("10.0.0.0/24"), 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewThresholdFleet(mustPrefixes("10.0.0.0/16", "10.0.1.0/24"), 5); err == nil {
		t.Error("overlapping prefixes accepted")
	}
}

func TestThresholdFleetReset(t *testing.T) {
	f := MustNewThresholdFleet(mustPrefixes("10.0.0.0/24"), 1)
	f.RecordHit(ipv4.MustParseAddr("10.0.0.1"))
	if f.NumAlerted() != 1 {
		t.Fatal("no alert before reset")
	}
	f.Reset()
	if f.NumAlerted() != 0 || f.TouchedFraction() != 0 {
		t.Error("reset left state")
	}
}

func TestQuorumReached(t *testing.T) {
	f := MustNewThresholdFleet(mustPrefixes("10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"), 1)
	f.RecordHit(ipv4.MustParseAddr("10.0.0.1"))
	if QuorumReached(f, 0.5) {
		t.Error("quorum at 25% alerted")
	}
	f.RecordHit(ipv4.MustParseAddr("10.0.1.1"))
	if !QuorumReached(f, 0.5) {
		t.Error("no quorum at 50% alerted")
	}
}

func TestUnionCoversFleet(t *testing.T) {
	f := MustNewThresholdFleet(mustPrefixes("10.0.0.0/24", "172.30.1.0/24"), 3)
	u := f.Union()
	if u.Size() != 512 {
		t.Errorf("union size = %d, want 512", u.Size())
	}
	if !u.Contains(ipv4.MustParseAddr("172.30.1.255")) {
		t.Error("union missing member")
	}
}

func TestRandomSlash24s(t *testing.T) {
	exclude := ipv4.SetOfPrefixes(ipv4.MustParsePrefix("41.0.0.0/8"))
	prefixes, err := RandomSlash24s(500, 1, exclude)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != 500 {
		t.Fatalf("placed %d, want 500", len(prefixes))
	}
	seen := make(map[ipv4.Addr]bool)
	for _, p := range prefixes {
		if p.Bits() != 24 {
			t.Fatalf("placement %v is not a /24", p)
		}
		if seen[p.First()] {
			t.Fatalf("duplicate placement %v", p)
		}
		seen[p.First()] = true
		if p.First().IsReserved() || p.First().IsPrivate() {
			t.Fatalf("placement %v in reserved/private space", p)
		}
		if p.First().Slash8() == 41 {
			t.Fatalf("placement %v inside excluded space", p)
		}
	}
	// Deterministic.
	again, err := RandomSlash24s(500, 1, exclude)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prefixes {
		if prefixes[i] != again[i] {
			t.Fatal("placement not deterministic")
		}
	}
	if _, err := RandomSlash24s(0, 1, nil); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomSlash24sWithin(t *testing.T) {
	prefixes, err := RandomSlash24sWithin(300, 2, []uint32{18, 41}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		if o := p.First().Slash8(); o != 18 && o != 41 {
			t.Fatalf("placement %v outside requested /8s", p)
		}
	}
	if _, err := RandomSlash24sWithin(10, 2, nil, nil); err == nil {
		t.Error("empty /8 list accepted")
	}
}

func TestRandomSlash24sImpossiblePlacementFails(t *testing.T) {
	// A /8 has 65536 /24s; asking for more must fail, not loop forever.
	if _, err := RandomSlash24sWithin(70000, 3, []uint32{18}, nil); err == nil {
		t.Error("impossible placement succeeded")
	}
}

func TestOnePerSlash16(t *testing.T) {
	slash16s := []uint32{18 << 8, 18<<8 | 1, 41 << 8}
	prefixes := OnePerSlash16(slash16s, 7)
	if len(prefixes) != 3 {
		t.Fatalf("placed %d, want 3", len(prefixes))
	}
	for i, p := range prefixes {
		if got := p.First().Slash16(); got != slash16s[i] {
			t.Errorf("placement %v not in /16 %d", p, slash16s[i])
		}
	}
}

func TestSlash16SweepOfSlash8(t *testing.T) {
	prefixes := Slash16SweepOfSlash8(192, []uint32{168}, 5)
	if len(prefixes) != 255 {
		t.Fatalf("placed %d, want 255", len(prefixes))
	}
	for _, p := range prefixes {
		if p.First().Slash8() != 192 {
			t.Fatalf("placement %v outside 192/8", p)
		}
		if p.First().Slash16() == 192<<8|168 {
			t.Fatalf("placement %v inside excluded 192.168/16", p)
		}
	}
}

func TestDegradedQuorum(t *testing.T) {
	prefixes := []ipv4.Prefix{
		ipv4.MustParsePrefix("10.0.0.0/24"),
		ipv4.MustParsePrefix("10.0.1.0/24"),
		ipv4.MustParsePrefix("10.0.2.0/24"),
		ipv4.MustParsePrefix("10.0.3.0/24"),
	}
	f := MustNewThresholdFleet(prefixes, 1)
	if got := f.NumUp(); got != 4 {
		t.Fatalf("NumUp without a mask = %d, want 4", got)
	}
	// Two detectors alert; two are withdrawn.
	f.RecordHit(ipv4.MustParseAddr("10.0.0.5"))
	f.RecordHit(ipv4.MustParseAddr("10.0.1.5"))
	down := &ipv4.Set{}
	down.AddPrefix(ipv4.MustParsePrefix("10.0.2.0/24"))
	down.AddPrefix(ipv4.MustParsePrefix("10.0.3.0/24"))
	f.SetDownSet(down)
	if got := f.NumUp(); got != 2 {
		t.Fatalf("NumUp under mask = %d, want 2", got)
	}
	// Naive quorum counts the withdrawn detectors as silent votes against;
	// the degraded quorum renormalizes over the detectors that can answer.
	if got := f.AlertedFraction(); got != 0.5 {
		t.Errorf("AlertedFraction = %v, want 0.5", got)
	}
	if got := f.AlertedFractionOfUp(); got != 1.0 {
		t.Errorf("AlertedFractionOfUp = %v, want 1.0", got)
	}
	if QuorumReached(f, 0.75) {
		t.Error("naive quorum reached despite down detectors diluting it")
	}
	if !QuorumReachedDegraded(f, 0.75) {
		t.Error("degraded quorum not reached over in-service detectors")
	}
	// Clearing the mask restores the naive view.
	f.SetDownSet(nil)
	if f.NumUp() != 4 || f.AlertedFractionOfUp() != 0.5 {
		t.Error("clearing the down mask did not restore full accounting")
	}
	// All detectors masked: the degraded fraction degrades to zero rather
	// than dividing by zero.
	all := &ipv4.Set{}
	for _, p := range prefixes {
		all.AddPrefix(p)
	}
	f.SetDownSet(all)
	if f.NumUp() != 0 || f.AlertedFractionOfUp() != 0 {
		t.Error("fully-masked fleet mishandled")
	}
}

// TestThresholdFleetCountsMatchScan replays probes into a fleet and into
// an unfiltered reference that scans every prefix, and requires the same
// per-detector counts. The fleet has /24s on both sides of /16 edges, a
// /12 spanning sixteen /16s, and prefixes at both ends of the
// address space, so its /16 filter is exercised at every boundary.
func TestThresholdFleetCountsMatchScan(t *testing.T) {
	prefixes := mustPrefixes("0.0.0.0/24", "7.1.255.0/24", "7.2.0.0/24", "7.2.255.0/24",
		"9.255.255.0/24", "10.0.0.0/24", "44.16.0.0/12", "44.32.0.0/24", "128.0.0.0/24",
		"200.9.128.0/24", "255.255.255.0/24")
	f := MustNewThresholdFleet(prefixes, 3)
	sorted := f.Prefixes()
	want := make([]uint64, len(sorted))
	r := rng.NewXoshiro(5)
	var probes []ipv4.Addr
	for _, p := range sorted {
		// Each edge, its neighbours across the /16 boundaries, and random
		// addresses in and around the prefix.
		for _, a := range []ipv4.Addr{p.First() - 1, p.First(), p.Last(), p.Last() + 1,
			p.First()&^0xffff - 1, p.First() | 0xffff, p.Last()&^0xffff - 1, p.Last() | 0xffff + 1} {
			probes = append(probes, a)
		}
		for range 200 {
			probes = append(probes, p.Nth(r.Uint64n(p.NumAddrs())), p.First()&^0xffff|ipv4.Addr(r.Uint64n(1<<16)))
		}
	}
	for range 20000 {
		probes = append(probes, ipv4.Addr(r.Uint64n(1<<32)))
	}
	for _, a := range probes {
		f.RecordHit(a)
		for i, p := range sorted {
			if p.Contains(a) {
				want[i]++
			}
		}
	}
	if got := f.Counts(); !slices.Equal(got, want) {
		t.Errorf("fleet counts %v, scan counts %v", got, want)
	}
}
