package sensor

import (
	"strings"
	"testing"

	"repro/internal/ipv4"
)

func TestDefaultIMSBlocks(t *testing.T) {
	blocks := DefaultIMSBlocks()
	if len(blocks) != 11 {
		t.Fatalf("got %d blocks, want 11", len(blocks))
	}
	wantBits := map[string]int{
		"A": 23, "B": 24, "C": 24, "D": 20, "E": 21,
		"F": 22, "G": 25, "H": 18, "I": 17, "M": 22, "Z": 8,
	}
	for _, b := range blocks {
		if got := b.Prefix.Bits(); got != wantBits[b.Label] {
			t.Errorf("block %s has /%d, want /%d", b.Label, got, wantBits[b.Label])
		}
	}
	// M must sit inside 192/8 but outside 192.168/16.
	m := blockNamed(t, blocks, "M")
	if m.Prefix.First().Slash8() != 192 {
		t.Errorf("M block at %v, want inside 192/8", m.Prefix)
	}
	if private := ipv4.MustParsePrefix("192.168.0.0/16"); private.Contains(m.Prefix.First()) || m.Prefix.Contains(private.First()) {
		t.Errorf("M block %v overlaps private 192.168/16", m.Prefix)
	}
	// Non-overlapping overall (NewFleet enforces and errors otherwise).
	if _, err := NewFleet(blocks); err != nil {
		t.Fatalf("default blocks overlap: %v", err)
	}
}

func TestSensorCountsAttemptsAndSources(t *testing.T) {
	b := Block{Label: "T", Prefix: ipv4.MustParsePrefix("10.0.0.0/22")}
	s := NewSensor(b)

	src1 := ipv4.MustParseAddr("1.1.1.1")
	src2 := ipv4.MustParseAddr("2.2.2.2")
	dstA := ipv4.MustParseAddr("10.0.1.5")
	dstB := ipv4.MustParseAddr("10.0.3.200")

	if !s.Observe(src1, dstA) || !s.Observe(src1, dstA) || !s.Observe(src2, dstA) {
		t.Fatal("in-block observation rejected")
	}
	if !s.Observe(src1, dstB) {
		t.Fatal("in-block observation rejected")
	}
	if s.Observe(src1, ipv4.MustParseAddr("10.0.4.0")) {
		t.Fatal("out-of-block observation accepted")
	}

	if got := s.TotalAttempts(); got != 4 {
		t.Errorf("TotalAttempts = %d, want 4", got)
	}
	if got := s.UniqueSources(); got != 2 {
		t.Errorf("UniqueSources = %d, want 2", got)
	}
	stats := s.PerSlash24()
	if len(stats) != 4 {
		t.Fatalf("PerSlash24 has %d entries, want 4", len(stats))
	}
	if stats[1].Attempts != 3 || stats[1].UniqueSources != 2 {
		t.Errorf("slot 1 = %+v, want 3 attempts / 2 sources", stats[1])
	}
	if stats[3].Attempts != 1 || stats[3].UniqueSources != 1 {
		t.Errorf("slot 3 = %+v, want 1 attempt / 1 source", stats[3])
	}
	if stats[0].Attempts != 0 || stats[2].Attempts != 0 {
		t.Error("untouched slots non-zero")
	}
	if stats[0].First != ipv4.MustParseAddr("10.0.0.0") || stats[3].First != ipv4.MustParseAddr("10.0.3.0") {
		t.Errorf("slot base addresses wrong: %v / %v", stats[0].First, stats[3].First)
	}
}

func TestSensorSmallerThanSlash24(t *testing.T) {
	b := Block{Label: "G", Prefix: ipv4.MustParsePrefix("10.9.8.128/25")}
	s := NewSensor(b)
	if !s.Observe(1, ipv4.MustParseAddr("10.9.8.200")) {
		t.Fatal("in-block observation rejected")
	}
	if s.Observe(1, ipv4.MustParseAddr("10.9.8.0")) {
		t.Fatal("address outside /25 accepted")
	}
	stats := s.PerSlash24()
	if len(stats) != 1 || stats[0].Attempts != 1 {
		t.Fatalf("PerSlash24 = %+v", stats)
	}
}

func TestSensorReset(t *testing.T) {
	s := NewSensor(Block{Label: "T", Prefix: ipv4.MustParsePrefix("10.0.0.0/24")})
	s.Observe(1, ipv4.MustParseAddr("10.0.0.1"))
	s.Reset()
	if s.TotalAttempts() != 0 || s.UniqueSources() != 0 {
		t.Error("Reset left residual counts")
	}
	if got := s.PerSlash24()[0]; got.Attempts != 0 || got.UniqueSources != 0 {
		t.Error("Reset left residual per-/24 stats")
	}
	// Uniqueness tracking restarts.
	s.Observe(1, ipv4.MustParseAddr("10.0.0.1"))
	if got := s.PerSlash24()[0].UniqueSources; got != 1 {
		t.Errorf("post-reset unique = %d, want 1", got)
	}
}

func TestFleetRouting(t *testing.T) {
	fleet := MustNewFleet(DefaultIMSBlocks())
	src := ipv4.MustParseAddr("7.7.7.7")

	// Inside D.
	if !fleet.Observe(src, ipv4.MustParseAddr("98.136.10.1")) {
		t.Error("probe to D block not recorded")
	}
	// Inside Z.
	if !fleet.Observe(src, ipv4.MustParseAddr("41.200.3.4")) {
		t.Error("probe to Z block not recorded")
	}
	// Monitored nowhere.
	if fleet.Observe(src, ipv4.MustParseAddr("8.8.8.8")) {
		t.Error("probe outside all blocks recorded")
	}

	if got := fleet.Sensor("D").TotalAttempts(); got != 1 {
		t.Errorf("D attempts = %d, want 1", got)
	}
	if got := fleet.Sensor("Z").TotalAttempts(); got != 1 {
		t.Errorf("Z attempts = %d, want 1", got)
	}
	if fleet.Sensor("nope") != nil {
		t.Error("unknown label returned a sensor")
	}
}

func TestFleetRejectsOverlap(t *testing.T) {
	blocks := []Block{
		{Label: "X", Prefix: ipv4.MustParsePrefix("10.0.0.0/8")},
		{Label: "Y", Prefix: ipv4.MustParsePrefix("10.1.0.0/16")},
	}
	if _, err := NewFleet(blocks); err == nil {
		t.Error("overlapping blocks accepted")
	}
}

func TestFleetCoverageSet(t *testing.T) {
	fleet := MustNewFleet(DefaultIMSBlocks())
	cov := fleet.CoverageSet()
	var want uint64
	for _, b := range DefaultIMSBlocks() {
		want += b.Prefix.NumAddrs()
	}
	if got := cov.Size(); got != want {
		t.Errorf("coverage size = %d, want %d", got, want)
	}
	if !cov.Contains(ipv4.MustParseAddr("41.255.255.255")) {
		t.Error("coverage misses Z block")
	}
}

func TestFleetBoundaryRouting(t *testing.T) {
	fleet := MustNewFleet(DefaultIMSBlocks())
	d := blockNamed(t, DefaultIMSBlocks(), "D")
	if !fleet.Observe(1, d.Prefix.First()) || !fleet.Observe(1, d.Prefix.Last()) {
		t.Error("block boundary addresses not recorded")
	}
	if fleet.Observe(1, d.Prefix.First()-1) && fleet.Sensor("D").TotalAttempts() != 2 {
		t.Error("address before block start recorded in D")
	}
	if got := fleet.Sensor("D").TotalAttempts(); got != 2 {
		t.Errorf("D attempts = %d, want 2", got)
	}
}

func TestFleetOverlapErrorNamesBlocks(t *testing.T) {
	blocks := []Block{
		{Label: "X", Prefix: ipv4.MustParsePrefix("10.0.0.0/8")},
		{Label: "Y", Prefix: ipv4.MustParsePrefix("10.1.0.0/16")},
	}
	_, err := NewFleet(blocks)
	if err == nil {
		t.Fatal("overlapping blocks accepted")
	}
	msg := err.Error()
	for _, want := range []string{"10.0.0.0/8", "10.1.0.0/16", "overlap"} {
		if !strings.Contains(msg, want) {
			t.Errorf("overlap error %q missing %q", msg, want)
		}
	}
}

func blockNamed(t *testing.T, blocks []Block, label string) Block {
	t.Helper()
	for _, b := range blocks {
		if b.Label == label {
			return b
		}
	}
	t.Fatalf("no %s block", label)
	return Block{}
}
