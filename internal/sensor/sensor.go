// Package sensor implements the darknet measurement substrate: blocks of
// unused address space that record every probe landing inside them, exactly
// as the Internet Motion Sensor (IMS) darknets behind the paper's
// measurements do.
//
// A Sensor counts, for every destination /24 inside its block, the number of
// infection attempts and the number of distinct source addresses — the two
// quantities plotted in the paper's Figures 1–4. A Fleet dispatches probes
// to the sensor owning the destination, in O(log n) per probe.
//
// The paper's eleven IMS blocks (anonymized labels with their real CIDR
// sizes) are reproduced with deterministic synthetic placements; see
// DefaultIMSBlocks.
package sensor

import (
	"fmt"
	"sort"

	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Block is a named darknet address block.
type Block struct {
	Label  string
	Prefix ipv4.Prefix
}

// String renders "label/bits" as the paper writes it (e.g. "D/20").
func (b Block) String() string {
	return fmt.Sprintf("%s/%d", b.Label, b.Prefix.Bits())
}

// DefaultIMSBlocks returns the eleven monitored blocks with the paper's
// labels and sizes: (A/23, B/24, C/24, D/20, E/21, F/22, G/25, H/18, I/17,
// M/22, Z/8). Placements are synthetic but honor the one positional fact the
// paper relies on: the M block lies inside 192.0.0.0/8 (and outside
// 192.168.0.0/16), which is why CodeRedII traffic leaking from NAT'd hosts
// creates its hotspot there. The remaining blocks are spread across distinct
// /8s as the real sensors were (9 organizations: ISPs, academic networks,
// an enterprise).
func DefaultIMSBlocks() []Block {
	mk := func(label, cidr string) Block {
		return Block{Label: label, Prefix: ipv4.MustParsePrefix(cidr)}
	}
	return []Block{
		mk("A", "35.10.0.0/23"),
		mk("B", "64.233.160.0/24"),
		mk("C", "80.68.89.0/24"),
		mk("D", "98.136.0.0/20"),
		mk("E", "130.213.8.0/21"),
		mk("F", "152.67.4.0/22"),
		mk("G", "169.229.60.0/25"),
		mk("H", "184.105.128.0/18"),
		mk("I", "204.152.0.0/17"),
		mk("M", "192.52.92.0/22"),
		mk("Z", "41.0.0.0/8"),
	}
}

// Sensor records traffic observed at one darknet block. The zero value is
// unusable; construct with NewSensor. Not safe for concurrent use.
type Sensor struct {
	block Block

	// Mode is the sensor's response posture; NewSensor defaults to
	// ActiveSYNACK, the IMS configuration (payloads elicited on TCP).
	Mode ResponseMode

	attempts []uint64 // infection attempts per /24 within the block
	uniqPer  []uint32 // distinct sources per /24 within the block
	pairSeen map[uint64]struct{}
	sources  map[uint32]struct{} // distinct sources block-wide
	total    uint64
	base24   uint32 // the block's first /24 index, precomputed for Observe

	trace    *trace.Recorder // see Trace; nil records nothing
	traceClk obs.Clock
}

// NewSensor returns an empty sensor for block.
func NewSensor(block Block) *Sensor {
	n := block.Prefix.Slash24s()
	return &Sensor{
		block:    block,
		Mode:     ActiveSYNACK,
		attempts: make([]uint64, n),
		uniqPer:  make([]uint32, n),
		pairSeen: make(map[uint64]struct{}),
		sources:  make(map[uint32]struct{}),
		base24:   block.Prefix.First().Slash24(),
	}
}

// Block returns the monitored block.
func (s *Sensor) Block() Block { return s.block }

// Contains reports whether dst lands inside the sensor's block.
func (s *Sensor) Contains(dst ipv4.Addr) bool { return s.block.Prefix.Contains(dst) }

// Observe records a probe from src to dst. It reports whether dst was
// inside the block (and therefore recorded).
func (s *Sensor) Observe(src, dst ipv4.Addr) bool {
	if !s.Contains(dst) {
		return false
	}
	idx := s.slash24Index(dst)
	s.attempts[idx]++
	s.total++
	if s.total == 1 && s.trace != nil {
		t := 0.0
		if s.traceClk != nil {
			t = s.traceClk.Seconds()
		}
		s.trace.Append(trace.Event{Tick: -1, T: t, Kind: trace.KindAlert, Agent: -1, Victim: -1,
			Addr: s.block.Prefix.String(), Vector: "first", Detail: s.block.Label})
	}
	key := uint64(idx)<<32 | uint64(uint32(src))
	if _, dup := s.pairSeen[key]; !dup {
		s.pairSeen[key] = struct{}{}
		s.uniqPer[idx]++
	}
	s.sources[uint32(src)] = struct{}{}
	return true
}

// slash24Index maps an in-block destination to its /24 slot. The block's
// base /24 is precomputed at construction — Observe runs once per
// monitored probe, and the prefix arithmetic showed up in profiles.
func (s *Sensor) slash24Index(dst ipv4.Addr) int {
	if s.block.Prefix.Bits() > 24 {
		// Blocks smaller than a /24 still occupy one slot.
		return 0
	}
	return int(dst.Slash24() - s.base24)
}

// Trace attaches a flight recorder: the sensor's first recorded probe —
// the moment worm traffic first reached this darknet block — appends one
// trace.KindAlert event (Vector "first") stamped with the injected
// clock's simulated time. Reset starts a new recording epoch, so the
// first probe after a reset traces again.
func (s *Sensor) Trace(rec *trace.Recorder, clock obs.Clock) {
	s.trace = rec
	s.traceClk = clock
}

// ObserveKind records a probe like Observe and additionally reports
// whether the sensor obtained the probe's payload given its response mode
// (UDP payloads always; TCP payloads only when actively responding with
// SYN-ACK). Signature-identification layers should only be fed when
// payload is true.
func (s *Sensor) ObserveKind(src, dst ipv4.Addr, kind ProbeKind) (recorded, payload bool) {
	if !s.Observe(src, dst) {
		return false, false
	}
	return true, PayloadDelivered(kind, s.Mode)
}

// TotalAttempts returns the number of probes recorded.
func (s *Sensor) TotalAttempts() uint64 { return s.total }

// UniqueSources returns the number of distinct source addresses seen
// anywhere in the block.
func (s *Sensor) UniqueSources() int { return len(s.sources) }

// Slash24Stats is the per-/24 view the paper's figures plot.
type Slash24Stats struct {
	// First is the first address of the /24 (or of the sub-/24 block).
	First ipv4.Addr
	// Attempts is the number of probes that landed in this /24.
	Attempts uint64
	// UniqueSources is the number of distinct sources that probed it.
	UniqueSources uint32
}

// PerSlash24 returns per-/24 statistics in address order.
func (s *Sensor) PerSlash24() []Slash24Stats {
	out := make([]Slash24Stats, len(s.attempts))
	base := s.block.Prefix.First()
	for i := range s.attempts {
		out[i] = Slash24Stats{
			First:         base + ipv4.Addr(i)<<8,
			Attempts:      s.attempts[i],
			UniqueSources: s.uniqPer[i],
		}
	}
	return out
}

// Reset clears all recorded traffic.
func (s *Sensor) Reset() {
	for i := range s.attempts {
		s.attempts[i] = 0
		s.uniqPer[i] = 0
	}
	// Clear the maps in place: a reset sensor is usually about to record
	// a comparable volume of traffic, so keeping the buckets avoids
	// regrowing them from scratch (sweeps reset fleets once per point).
	clear(s.pairSeen)
	clear(s.sources)
	s.total = 0
}

// Fleet routes probes to the sensor owning the destination address.
type Fleet struct {
	sensors []*Sensor // sorted by block start address
}

// NewFleet builds a fleet over the given blocks. Blocks must not overlap.
func NewFleet(blocks []Block) (*Fleet, error) {
	sensors := make([]*Sensor, len(blocks))
	for i, b := range blocks {
		sensors[i] = NewSensor(b)
	}
	sort.Slice(sensors, func(i, j int) bool {
		return sensors[i].block.Prefix.First() < sensors[j].block.Prefix.First()
	})
	for i := 1; i < len(sensors); i++ {
		prev, cur := sensors[i-1].block.Prefix, sensors[i].block.Prefix
		if prev.Last() >= cur.First() {
			return nil, fmt.Errorf("sensor: blocks %v and %v overlap", prev, cur)
		}
	}
	return &Fleet{sensors: sensors}, nil
}

// MustNewFleet is like NewFleet but panics on error.
func MustNewFleet(blocks []Block) *Fleet {
	f, err := NewFleet(blocks)
	if err != nil {
		panic(err)
	}
	return f
}

// Observe routes one probe; it reports whether any sensor recorded it.
func (f *Fleet) Observe(src, dst ipv4.Addr) bool {
	if s := f.lookup(dst); s != nil {
		return s.Observe(src, dst)
	}
	return false
}

// lookup returns the sensor whose block contains dst, or nil.
func (f *Fleet) lookup(dst ipv4.Addr) *Sensor {
	i := sort.Search(len(f.sensors), func(i int) bool {
		return f.sensors[i].block.Prefix.Last() >= dst
	})
	if i < len(f.sensors) && f.sensors[i].Contains(dst) {
		return f.sensors[i]
	}
	return nil
}

// Sensor returns the sensor with the given label, or nil.
func (f *Fleet) Sensor(label string) *Sensor {
	for _, s := range f.sensors {
		if s.block.Label == label {
			return s
		}
	}
	return nil
}

// Sensors returns the fleet's sensors ordered by block start address.
func (f *Fleet) Sensors() []*Sensor {
	out := make([]*Sensor, len(f.sensors))
	copy(out, f.sensors)
	return out
}

// Trace attaches a flight recorder to every sensor in the fleet (see
// Sensor.Trace).
func (f *Fleet) Trace(rec *trace.Recorder, clock obs.Clock) {
	for _, s := range f.sensors {
		s.Trace(rec, clock)
	}
}

// CoverageSet returns the union of all monitored blocks as an address set.
func (f *Fleet) CoverageSet() *ipv4.Set {
	set := &ipv4.Set{}
	for _, s := range f.sensors {
		set.AddPrefix(s.block.Prefix)
	}
	return set
}

// Reset clears every sensor in the fleet.
func (f *Fleet) Reset() {
	for _, s := range f.sensors {
		s.Reset()
	}
}
