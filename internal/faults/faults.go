// Package faults is the deterministic fault-injection engine: it turns a
// seeded, JSON-serializable Config into a compiled Plan the simulation
// drivers query probe by probe and tick by tick.
//
// The paper names failures and misconfiguration as a first-class
// environmental root cause of hotspots (alongside filtering policy and
// topology), and its Section 5 detection results implicitly assume a fully
// healthy sensor fleet. This package makes both assumptions adjustable:
//
//   - Sensor outages — scheduled withdrawals and Markov up/down flapping of
//     darknet blocks, the realistic degradation of an IMS-style fleet.
//   - Bursty probe loss — a Gilbert–Elliott two-state channel replacing the
//     uniform loss coin flip.
//   - Misconfigured egress policy — a fraction of org borders whose
//     filtering silently inverts or gaps.
//   - Degraded reporting — sensor reports delayed and duplicated on the way
//     to the detection layer.
//
// Determinism is the package contract: every random choice derives from the
// plan's own seed through internal/rng, every timeline is compiled up front
// against an explicit horizon, and no wall-clock time is consulted. Two
// compilations of the same Config over the same horizon answer every query
// identically.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/rng"
)

// span is one half-open interval [start, end) of simulated seconds.
type span struct {
	start, end float64
}

// timeline is a sorted, disjoint list of down (or bad) spans.
type timeline []span

// covers reports whether t falls inside any span.
func (tl timeline) covers(t float64) bool {
	i := sort.Search(len(tl), func(i int) bool { return tl[i].end > t })
	return i < len(tl) && tl[i].start <= t
}

// maxSpansPerTimeline bounds one process's compiled spans. Compile rejects
// configs expected to exceed it; the hard cap below is the backstop against
// adversarial dwell draws (underflowed exponentials that stall t).
const maxSpansPerTimeline = 1 << 20

// alternating builds the on/off process timeline: starting in the "up"
// state, dwell times are exponential draws with the given means, and the
// returned spans are the "down" periods inside [0, horizon).
func alternating(r *rng.Xoshiro, meanUp, meanDown, horizon float64) timeline {
	var tl timeline
	t := 0.0
	for t < horizon && len(tl) < maxSpansPerTimeline {
		t += r.Exponential(meanUp)
		if t >= horizon {
			break
		}
		down := r.Exponential(meanDown)
		tl = append(tl, span{start: t, end: t + down})
		t += down
	}
	return tl
}

// checkDwell rejects dwell means so small relative to the horizon that the
// compiled timeline would be absurdly fine (and slow): the expected span
// count must stay under maxSpansPerTimeline.
func checkDwell(what string, meanUp, meanDown, horizon float64) error {
	if horizon/(meanUp+meanDown) > maxSpansPerTimeline {
		return fmt.Errorf("faults: %s dwell means (%v up, %v down) too small for horizon %v", what, meanUp, meanDown, horizon)
	}
	return nil
}

// merge folds overlapping spans into a sorted disjoint timeline.
func merge(spans []span) timeline {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := timeline{spans[0]}
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// outage is one compiled block withdrawal.
type outage struct {
	prefix ipv4.Prefix
	down   timeline
}

// Plan is a compiled fault plan. A nil *Plan is valid and describes a
// fault-free world: every query method is safe on a nil receiver, so
// drivers call them unconditionally.
type Plan struct {
	cfg     Config
	horizon float64
	// outages are sorted by block start address for binary-search routing;
	// Compile rejects overlapping blocks, mirroring sensor.NewFleet.
	outages []outage
	burst   timeline // spans where the channel is in the bad state
}

// Compile builds the plan's timelines over [0, horizon) simulated seconds.
// Queries beyond the horizon report the fault-free state, so the horizon
// must cover the simulation's MaxSeconds (the sim drivers enforce this).
func Compile(cfg Config, horizon float64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !validNonNeg(horizon) || horizon <= 0 {
		return nil, fmt.Errorf("faults: horizon %v must be positive and finite", horizon)
	}
	p := &Plan{cfg: cfg, horizon: horizon}
	for i, oc := range cfg.Outages {
		prefix := ipv4.MustParsePrefix(oc.Block) // Validate parsed it already
		var spans []span
		if oc.End > oc.Start {
			end := oc.End
			if end > horizon {
				end = horizon
			}
			if oc.Start < horizon {
				spans = append(spans, span{start: oc.Start, end: end})
			}
		}
		if oc.MeanUp > 0 {
			if err := checkDwell(fmt.Sprintf("outage %d", i), oc.MeanUp, oc.MeanDown, horizon); err != nil {
				return nil, err
			}
			// Each block flaps on its own stream so adding an outage never
			// shifts another block's timeline.
			r := rng.NewXoshiro(rng.Mix64(cfg.Seed ^ uint64(prefix.First())<<8 ^ uint64(i)))
			spans = append(spans, alternating(r, oc.MeanUp, oc.MeanDown, horizon)...)
		}
		p.outages = append(p.outages, outage{prefix: prefix, down: merge(spans)})
	}
	sort.Slice(p.outages, func(i, j int) bool {
		return p.outages[i].prefix.First() < p.outages[j].prefix.First()
	})
	for i := 1; i < len(p.outages); i++ {
		prev, cur := p.outages[i-1].prefix, p.outages[i].prefix
		if prev.Last() >= cur.First() {
			return nil, fmt.Errorf("faults: outage blocks %v and %v overlap", prev, cur)
		}
	}
	if b := cfg.Burst; b != nil {
		if err := checkDwell("burst", b.MeanGood, b.MeanBad, horizon); err != nil {
			return nil, err
		}
		r := rng.NewXoshiro(rng.Mix64(cfg.Seed ^ 0x6275727374)) // "burst"
		p.burst = alternating(r, b.MeanGood, b.MeanBad, horizon)
	}
	return p, nil
}

// MustCompile is like Compile but panics on error.
func MustCompile(cfg Config, horizon float64) *Plan {
	p, err := Compile(cfg, horizon)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the plan's source configuration (zero value for nil).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// Horizon returns the compiled horizon in simulated seconds (0 for nil).
func (p *Plan) Horizon() float64 {
	if p == nil {
		return 0
	}
	return p.horizon
}

// SensorDown reports whether the sensor block containing dst is withdrawn
// at simulated time t.
func (p *Plan) SensorDown(dst ipv4.Addr, t float64) bool {
	if p == nil || len(p.outages) == 0 {
		return false
	}
	i := sort.Search(len(p.outages), func(i int) bool {
		return p.outages[i].prefix.Last() >= dst
	})
	if i >= len(p.outages) || !p.outages[i].prefix.Contains(dst) {
		return false
	}
	return p.outages[i].down.covers(t)
}

// DownBlocks returns how many outage blocks are down at time t.
func (p *Plan) DownBlocks(t float64) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, o := range p.outages {
		if o.down.covers(t) {
			n++
		}
	}
	return n
}

// DownSpace returns the union of blocks that are ever down during the
// horizon — the space an operator should treat as unreliable.
func (p *Plan) DownSpace() *ipv4.Set {
	set := &ipv4.Set{}
	if p == nil {
		return set
	}
	for _, o := range p.outages {
		if len(o.down) > 0 {
			set.AddPrefix(o.prefix)
		}
	}
	return set
}

// BurstLoss returns the channel's loss probability at time t (0 without a
// burst model).
func (p *Plan) BurstLoss(t float64) float64 {
	if p == nil || p.cfg.Burst == nil {
		return 0
	}
	if p.burst.covers(t) {
		return p.cfg.Burst.LossBad
	}
	return p.cfg.Burst.LossGood
}

// BurstBad reports whether the channel is in its bad state at time t.
func (p *Plan) BurstBad(t float64) bool {
	return p != nil && p.cfg.Burst != nil && p.burst.covers(t)
}

// Misconfigure returns a copy of orgs with the plan's misconfiguration
// applied, plus the names of the corrupted orgs (sorted by selection
// order). Selection is a deterministic seeded shuffle, so a growing
// Fraction corrupts a superset of the orgs a smaller Fraction corrupts.
func (p *Plan) Misconfigure(orgs []netenv.Org) ([]netenv.Org, []string) {
	out := make([]netenv.Org, len(orgs))
	copy(out, orgs)
	if p == nil || p.cfg.Misconfig == nil || len(orgs) == 0 {
		return out, nil
	}
	m := p.cfg.Misconfig
	n := int(m.Fraction*float64(len(orgs)) + 0.5)
	if n == 0 {
		return out, nil
	}
	if n > len(orgs) {
		n = len(orgs)
	}
	r := rng.NewXoshiro(rng.Mix64(p.cfg.Seed ^ 0x6d697363)) // "misc"
	order := r.Shuffle(len(orgs))
	var names []string
	for _, idx := range order[:n] {
		o := &out[idx]
		switch m.Mode {
		case MisconfigInvert:
			o.EgressDrop = 1 - o.EgressDrop
		case MisconfigGap:
			o.EgressDrop = 0
		}
		names = append(names, o.Name)
	}
	return out, names
}

// WithdrawalOrder returns the seed-pinned random order in which an outage
// sweep withdraws a fleet of n sensor blocks: withdrawing a fraction f
// takes the order's first ⌈f·n⌉ entries, so a larger fraction withdraws a
// superset of the blocks a smaller one withdraws.
func WithdrawalOrder(seed uint64, n int) []int {
	return rng.NewXoshiro(rng.Mix64(seed ^ 0x6f7574616765)).Shuffle(n) // "outage"
}

// report is one queued sensor report.
type report struct {
	src, dst ipv4.Addr
	due      float64
}

// Reporter applies the plan's reporting faults between a sensor and its
// detector: reports are held for Delay simulated seconds and delivered in
// observation order when Advance passes their due time; each report is
// duplicated with probability DupProb. Duplication randomness comes from
// the reporter's own seeded stream, never the simulation's. Not safe for
// concurrent use.
type Reporter struct {
	deliver func(src, dst ipv4.Addr)
	delay   float64
	dup     float64
	r       *rng.Xoshiro
	now     float64
	queue   []report
	dupes   uint64
	total   uint64
}

// NewReporter wraps deliver with the plan's reporting faults. It returns
// nil when the plan has no reporting faults — callers treat a nil reporter
// as "call deliver directly".
func (p *Plan) NewReporter(deliver func(src, dst ipv4.Addr)) *Reporter {
	if p == nil || p.cfg.Reporting == nil {
		return nil
	}
	rc := p.cfg.Reporting
	return &Reporter{
		deliver: deliver,
		delay:   rc.Delay,
		dup:     rc.DupProb,
		r:       rng.NewXoshiro(rng.Mix64(p.cfg.Seed ^ 0x7265706f7274)), // "report"
	}
}

// Report queues one observation made at the reporter's current time.
func (rep *Reporter) Report(src, dst ipv4.Addr) {
	rep.total++
	n := 1
	if rep.dup > 0 && rep.r.Bernoulli(rep.dup) {
		rep.dupes++
		n = 2
	}
	for i := 0; i < n; i++ {
		rep.queue = append(rep.queue, report{src: src, dst: dst, due: rep.now + rep.delay})
	}
	//lint:ignore float-eq a zero Delay is the configured deliver-now setting, copied unchanged from ReportConfig, never a computed value
	if rep.delay == 0 {
		rep.flushDue()
	}
}

// RecordHit implements the sim drivers' hit-recorder shape for callers
// that have no source address.
func (rep *Reporter) RecordHit(dst ipv4.Addr) { rep.Report(0, dst) }

// Advance moves the reporter's clock to now and delivers every report due
// at or before it, in observation order.
func (rep *Reporter) Advance(now float64) {
	rep.now = now
	rep.flushDue()
}

func (rep *Reporter) flushDue() {
	i := 0
	for ; i < len(rep.queue) && rep.queue[i].due <= rep.now; i++ {
		rep.deliver(rep.queue[i].src, rep.queue[i].dst)
	}
	// Move the pending reports to the front of the array, so later reports
	// reuse its capacity. Re-slicing past the delivered ones would shed
	// that capacity, and with no delay every report would allocate anew.
	if i > 0 {
		rep.queue = rep.queue[:copy(rep.queue, rep.queue[i:])]
	}
}

// Flush delivers every queued report regardless of due time (end of run).
func (rep *Reporter) Flush() {
	for _, q := range rep.queue {
		rep.deliver(q.src, q.dst)
	}
	rep.queue = rep.queue[:0]
}

// Pending returns the number of queued, undelivered reports.
func (rep *Reporter) Pending() int { return len(rep.queue) }

// Duplicated returns how many observations were duplicated.
func (rep *Reporter) Duplicated() uint64 { return rep.dupes }

// Observed returns how many observations were reported (before
// duplication).
func (rep *Reporter) Observed() uint64 { return rep.total }
