// Package detect implements the distributed detection systems whose
// blindness to hotspots is the paper's Section 5 result: fleets of /24
// darknet detectors with threshold alerting, quorum aggregation over fleet
// alerts, and placement strategies.
//
// The paper's detector: "each sensor was set to generate an alert after
// observing n worm infection attempts … our detector had no false positives
// and was set to generate an alert after observing 5 threat payloads."
package detect

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ThresholdFleet is a set of non-overlapping detector prefixes (typically
// /24s), each alerting once its probe count reaches a threshold. It
// implements sim.HitRecorder. Not safe for concurrent use.
type ThresholdFleet struct {
	prefixes  []ipv4.Prefix         // sorted by first address
	lasts     []ipv4.Addr           // lasts[i] is prefixes[i].Last()
	occ       *[1 << 16 / 64]uint64 // bit n set when /16 n meets a detector
	counts    []uint64
	alerted   []bool
	nAlerted  int
	threshold uint64
	firstHit  []bool
	union     *ipv4.Set
	metrics   fleetMetrics // see Instrument; zero value is inert
	downSet   *ipv4.Set    // see SetDownSet; nil means every detector is up
	trace     *trace.Recorder
	traceClk  obs.Clock
}

// NewThresholdFleet builds a fleet. Prefixes must not overlap; threshold
// must be ≥ 1.
func NewThresholdFleet(prefixes []ipv4.Prefix, threshold uint64) (*ThresholdFleet, error) {
	if threshold == 0 {
		return nil, errors.New("detect: zero alert threshold")
	}
	if len(prefixes) == 0 {
		return nil, errors.New("detect: empty fleet")
	}
	sorted := make([]ipv4.Prefix, len(prefixes))
	copy(sorted, prefixes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].First() < sorted[j].First() })
	union := &ipv4.Set{}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Last() >= sorted[i].First() {
			return nil, fmt.Errorf("detect: prefixes %v and %v overlap", sorted[i-1], sorted[i])
		}
	}
	lasts := make([]ipv4.Addr, len(sorted))
	occ := new([1 << 16 / 64]uint64)
	for i, p := range sorted {
		union.AddPrefix(p)
		lasts[i] = p.Last()
		for n := p.First().Slash16(); n <= lasts[i].Slash16(); n++ {
			occ[n>>6] |= 1 << (n & 63)
		}
	}
	return &ThresholdFleet{
		prefixes:  sorted,
		lasts:     lasts,
		occ:       occ,
		counts:    make([]uint64, len(sorted)),
		alerted:   make([]bool, len(sorted)),
		firstHit:  make([]bool, len(sorted)),
		threshold: threshold,
		union:     union,
	}, nil
}

// MustNewThresholdFleet is like NewThresholdFleet but panics on error.
func MustNewThresholdFleet(prefixes []ipv4.Prefix, threshold uint64) *ThresholdFleet {
	f, err := NewThresholdFleet(prefixes, threshold)
	if err != nil {
		panic(err)
	}
	return f
}

// RecordHit registers a probe landing at dst; probes outside every detector
// are ignored. Implements the sim.HitRecorder interface.
func (f *ThresholdFleet) RecordHit(dst ipv4.Addr) {
	i := f.lookup(dst)
	if i < 0 {
		return
	}
	f.counts[i]++
	f.firstHit[i] = true
	f.metrics.hits.Inc()
	if !f.alerted[i] && f.counts[i] >= f.threshold {
		f.alerted[i] = true
		f.nAlerted++
		f.metrics.recordAlert(f.nAlerted)
		if f.trace != nil {
			t := 0.0
			if f.traceClk != nil {
				t = f.traceClk.Seconds()
			}
			// Hits replay during the drivers' serial phase, so alert
			// events land between the tick's infection edges and its
			// probe summary; tick -1 marks them as clock-stamped rather
			// than tick-loop-emitted.
			f.trace.Append(trace.Event{Tick: -1, T: t, Kind: trace.KindAlert, Agent: -1, Victim: -1,
				Addr: f.prefixes[i].String(), Vector: "threshold", N: f.counts[i]})
		}
	}
}

// Trace attaches a flight recorder: each detector's threshold crossing
// appends one trace.KindAlert event stamped with the injected clock's
// simulated time (nil clock stamps 0). Like Instrument, attaching draws
// no randomness and never perturbs detection.
func (f *ThresholdFleet) Trace(rec *trace.Recorder, clock obs.Clock) {
	f.trace = rec
	f.traceClk = clock
}

// lookup returns the index of the detector holding dst, or -1. A /16
// holding no detector, where most probes land, costs one bit test.
func (f *ThresholdFleet) lookup(dst ipv4.Addr) int {
	if n := dst.Slash16(); f.occ[n>>6]&(1<<(n&63)) == 0 {
		return -1
	}
	lo, hi := 0, len(f.lasts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.lasts[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.lasts) && f.prefixes[lo].First() <= dst {
		return lo
	}
	return -1
}

// Size returns the number of detectors.
func (f *ThresholdFleet) Size() int { return len(f.prefixes) }

// TotalHits returns the total probes recorded across all detectors.
func (f *ThresholdFleet) TotalHits() uint64 {
	var n uint64
	for _, c := range f.counts {
		n += c
	}
	return n
}

// Counts returns a copy of the per-detector hit counts, ordered by detector
// first address.
func (f *ThresholdFleet) Counts() []uint64 {
	out := make([]uint64, len(f.counts))
	copy(out, f.counts)
	return out
}

// Prefixes returns the detector prefixes, ordered by first address.
func (f *ThresholdFleet) Prefixes() []ipv4.Prefix {
	out := make([]ipv4.Prefix, len(f.prefixes))
	copy(out, f.prefixes)
	return out
}

// NumAlerted returns how many detectors have alerted.
func (f *ThresholdFleet) NumAlerted() int { return f.nAlerted }

// AlertedFraction returns the alerted share of the fleet.
func (f *ThresholdFleet) AlertedFraction() float64 {
	return float64(f.nAlerted) / float64(len(f.prefixes))
}

// TouchedFraction returns the share of detectors that saw at least one
// probe (alerted or not).
func (f *ThresholdFleet) TouchedFraction() float64 {
	n := 0
	for _, t := range f.firstHit {
		if t {
			n++
		}
	}
	return float64(n) / float64(len(f.prefixes))
}

// Union returns the fleet's monitored address space.
func (f *ThresholdFleet) Union() *ipv4.Set { return f.union }

// SetDownSet marks address space whose detectors are out of service (a
// faults.Plan's DownSpace). It is an accounting mask, not a traffic gate:
// the simulation already withholds hits to withdrawn space, and this mask
// lets quorum renormalize over the detectors an operator knows are up. A
// detector counts as down when its first address lies in the set; nil
// clears the mask.
func (f *ThresholdFleet) SetDownSet(down *ipv4.Set) { f.downSet = down }

// detectorDown reports whether detector i is masked out of service.
func (f *ThresholdFleet) detectorDown(i int) bool {
	return f.downSet != nil && f.downSet.Contains(f.prefixes[i].First())
}

// NumUp returns how many detectors are in service under the down mask.
func (f *ThresholdFleet) NumUp() int {
	n := 0
	for i := range f.prefixes {
		if !f.detectorDown(i) {
			n++
		}
	}
	return n
}

// AlertedFractionOfUp returns the alerted share of the in-service
// detectors (0 when none are up).
func (f *ThresholdFleet) AlertedFractionOfUp() float64 {
	up, alerted := 0, 0
	for i := range f.prefixes {
		if f.detectorDown(i) {
			continue
		}
		up++
		if f.alerted[i] {
			alerted++
		}
	}
	if up == 0 {
		return 0
	}
	return float64(alerted) / float64(up)
}

// Reset clears all counts and alerts.
func (f *ThresholdFleet) Reset() {
	for i := range f.counts {
		f.counts[i] = 0
		f.alerted[i] = false
		f.firstHit[i] = false
	}
	f.nAlerted = 0
}

// QuorumReached reports whether at least fraction of the fleet has alerted —
// the aggregation rule of quorum-based distributed detection. The paper's
// point: under hotspots this quorum "would likely never alert" even with
// zero false positives and instantaneous communication.
func QuorumReached(f *ThresholdFleet, fraction float64) bool {
	return f.AlertedFraction() >= fraction
}

// QuorumReachedDegraded is QuorumReached renormalized over the in-service
// detectors: an operator who knows which blocks are withdrawn (SetDownSet)
// asks for a quorum of the detectors that can still answer. The naive
// quorum silently counts down detectors as "not alerted"; comparing the
// two is how ext-faults quantifies the cost of not tracking fleet health.
func QuorumReachedDegraded(f *ThresholdFleet, fraction float64) bool {
	return f.AlertedFractionOfUp() >= fraction
}
