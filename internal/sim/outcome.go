package sim

import (
	"fmt"
	"strconv"

	"repro/internal/faults"
	"repro/internal/obs"
)

// ProbeOutcome classifies the fate of one probe. The taxonomy is the
// paper's Sections 4–5 failure modes made countable: a run that silently
// loses probes to egress filtering must be distinguishable from one that
// doesn't, because *where probes go and why they don't arrive* is the
// whole result.
//
// Every probe gets exactly one outcome, so per-tick outcome counts sum to
// TickInfo.Probes (the conservation invariant the tests enforce).
type ProbeOutcome uint8

// Outcome constants, in declaration order. The declaration order is
// append-only — new outcomes go at the end so existing OutcomeCounts
// indices, String() rendering order, and metric series stay stable — and
// therefore does NOT encode classification precedence. The authoritative
// precedence both drivers implement (asserted by TestExactOutcomePrecedence
// and TestFastOutcomePrecedence, documented in DESIGN.md §10) is, for a
// probe to a public destination:
//
//	BurstLost > Filtered > SensorDown > Infection > SelfHit > SensorHit > Delivered
//
// and for a probe to an RFC 1918 destination:
//
//	PrivateDropped (public source) > Infection > NATBlocked > SelfHit > Delivered
const (
	// OutcomeDelivered: the probe crossed the network and landed on
	// unmonitored, non-vulnerable (or already-infected) address space.
	OutcomeDelivered ProbeOutcome = iota
	// OutcomeFiltered: dropped by environment policy — egress
	// filters, containment, or random loss.
	OutcomeFiltered
	// OutcomePrivateDropped: an RFC 1918 destination probed from a public
	// host; private space never crosses the Internet.
	OutcomePrivateDropped
	// OutcomeNATBlocked: the destination matched a vulnerable private host
	// on a different NAT site, unreachable by topology.
	OutcomeNATBlocked
	// OutcomeSensorHit: delivered onto monitored (darknet) address space.
	OutcomeSensorHit
	// OutcomeSelfHit: the host probed its own address.
	OutcomeSelfHit
	// OutcomeInfection: the probe infected at least one new host.
	OutcomeInfection
	// OutcomeBurstLost: dropped by the fault plan's Gilbert–Elliott burst
	// channel — loss that arrives in bursts, distinct from the steady
	// filtering/loss behind OutcomeFiltered.
	OutcomeBurstLost
	// OutcomeSensorDown: the probe landed on monitored space whose sensor
	// block the fault plan had withdrawn — delivered by the network,
	// unseen by the measurement substrate.
	OutcomeSensorDown

	// NumOutcomes is the number of outcome categories.
	NumOutcomes = int(iota)
)

// outcomeNames are the stable label values used in metrics and output.
var outcomeNames = [NumOutcomes]string{
	"delivered", "filtered", "private-dropped", "nat-blocked",
	"sensor-hit", "self-hit", "infection", "burst-lost", "sensor-down",
}

// String returns the stable metric-label name of the outcome.
func (o ProbeOutcome) String() string {
	if int(o) < NumOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// OutcomeCounts tallies probes by outcome.
type OutcomeCounts [NumOutcomes]uint64

// Total returns the sum over all outcomes.
func (c OutcomeCounts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// Merge adds d into c.
func (c *OutcomeCounts) Merge(d OutcomeCounts) {
	for i, v := range d {
		c[i] += v
	}
}

// String renders the non-zero tallies as "name=count" pairs in outcome
// order, e.g. "delivered=120 filtered=30 infection=2". It runs once per
// traced tick, so it appends into one stack buffer, long enough for every
// outcome at its widest count, and allocates only the returned string.
func (c OutcomeCounts) String() string {
	var buf [320]byte
	b := buf[:0]
	for i, v := range c {
		if v == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, outcomeNames[i]...)
		b = append(b, '=')
		b = strconv.AppendUint(b, v, 10)
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}

// newInfectionBuckets bound the per-tick new-infection histogram.
var newInfectionBuckets = obs.ExpBuckets(1, 10, 6)

// simMetrics holds the pre-resolved registry handles a driver updates once
// per tick. A nil *simMetrics (registry absent) makes every flush a no-op,
// so the drivers call it unconditionally.
type simMetrics struct {
	outcomes [NumOutcomes]*obs.Counter
	emitted  *obs.Counter
	ticks    *obs.Counter
	infected *obs.Gauge
	newInf   *obs.Histogram
	// Fault gauges, registered only when a fault plan is attached (see
	// attachFaults): the number of withdrawn sensor blocks and the burst
	// channel's current loss rate, sampled at each tick.
	downBlocks *obs.Gauge
	burstLoss  *obs.Gauge
}

// newSimMetrics resolves the driver's metric handles; the driver label is
// "exact" or "fast" so both drivers can run against one registry, and the
// config's extra label pairs keep runs sharing one registry (concurrent
// sweep points) on distinct series instead of colliding.
func newSimMetrics(reg *obs.Registry, driver string, extra []string) *simMetrics {
	if reg == nil {
		return nil
	}
	labels := func(more ...string) []string {
		l := make([]string, 0, 2+len(extra)+len(more))
		l = append(l, "driver", driver)
		l = append(l, extra...)
		return append(l, more...)
	}
	m := &simMetrics{
		emitted:  reg.Counter("sim_probes_emitted_total", labels()...),
		ticks:    reg.Counter("sim_ticks_total", labels()...),
		infected: reg.Gauge("sim_infected_hosts", labels()...),
		newInf:   reg.Histogram("sim_tick_new_infections", newInfectionBuckets, labels()...),
	}
	for i := range m.outcomes {
		m.outcomes[i] = reg.Counter("sim_probes_total",
			labels("outcome", ProbeOutcome(i).String())...)
	}
	return m
}

// attachFaults registers the fault gauges; a no-op without a registry or
// without a plan.
func (m *simMetrics) attachFaults(reg *obs.Registry, plan *faults.Plan, driver string, extra []string) {
	if m == nil || plan == nil {
		return
	}
	labels := make([]string, 0, 2+len(extra))
	labels = append(labels, "driver", driver)
	labels = append(labels, extra...)
	m.downBlocks = reg.Gauge("faults_sensor_blocks_down", labels...)
	m.burstLoss = reg.Gauge("faults_burst_loss", labels...)
}

// flushFaults samples the fault plan's state at tick time t.
func (m *simMetrics) flushFaults(plan *faults.Plan, t float64) {
	if m == nil || m.downBlocks == nil {
		return
	}
	m.downBlocks.Set(float64(plan.DownBlocks(t)))
	m.burstLoss.Set(plan.BurstLoss(t))
}

// flushTick publishes one completed tick.
func (m *simMetrics) flushTick(ti TickInfo) {
	if m == nil {
		return
	}
	for i, v := range ti.Outcomes {
		m.outcomes[i].Add(v)
	}
	m.emitted.Add(ti.Probes)
	m.ticks.Inc()
	m.infected.Set(float64(ti.Infected))
	m.newInf.Observe(float64(ti.NewInfections))
}
