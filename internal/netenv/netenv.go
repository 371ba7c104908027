// Package netenv models the environmental factors of the hotspots paper:
// the network conditions along the end-to-end path between an infected host
// and its target that bias propagation independently of the worm's own
// algorithm.
//
// Two factor classes are implemented, plus NAT:
//
//   - Filtering policy: egress filters (enterprise firewalls dropping
//     outbound worm probes — Table 2). Ingress filtering is not modelled
//     here; the Figure 2 experiment models the M block's upstream filter
//     on its own.
//   - Network failures: a uniform probe-loss rate.
//   - Topology: NAT reachability semantics for hosts with RFC 1918
//     addresses (Section 5.3) — private hosts are reachable only from their
//     own site, while their outbound probes flow freely.
package netenv

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ipv4"
	"repro/internal/population"
	"repro/internal/rng"
)

// FilterRule drops probes whose relevant address falls in Prefix with
// probability Drop (1.0 = a hard block).
type FilterRule struct {
	Prefix ipv4.Prefix
	Drop   float64
}

// Environment is the set of environmental factors applied to every probe.
// The zero value is a perfectly transparent network. Not safe for
// concurrent mutation.
type Environment struct {
	egress []FilterRule

	// LossRate is the probability an arbitrary probe is lost to failures
	// or congestion. Prefer SetLossRate, which validates the value; a NaN
	// or out-of-range rate written directly makes Bernoulli draws silently
	// meaningless.
	LossRate float64
}

// SetLossRate validates and sets the uniform loss rate, rejecting NaN and
// values outside [0,1]. Both boundaries are legal: 0 is a lossless
// network, 1 loses everything.
func (e *Environment) SetLossRate(rate float64) error {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return fmt.Errorf("netenv: loss rate %v outside [0,1]", rate)
	}
	e.LossRate = rate
	return nil
}

// AddEgressFilter drops probes originating inside prefix.
func (e *Environment) AddEgressFilter(prefix ipv4.Prefix, drop float64) {
	e.egress = append(e.egress, FilterRule{Prefix: prefix, Drop: drop})
	sortRules(e.egress)
}

func sortRules(rules []FilterRule) {
	sort.Slice(rules, func(i, j int) bool {
		return rules[i].Prefix.First() < rules[j].Prefix.First()
	})
}

// SourceView is the environment as seen from one fixed source address:
// every factor (uniform loss and the egress rules matching the source)
// folded into a single survival probability. The exact driver compiles one
// view per infected host at infection time and reuses it for every probe
// the host ever sends.
type SourceView struct {
	// keep is the probability a probe survives the uniform loss rate and
	// all egress rules matching the source — the product of the individual
	// survival probabilities, so one Bernoulli draw is distributionally
	// equivalent to the per-factor sequence.
	keep float64
}

// CompileSource folds the environment's factors for src into a
// SourceView.
func (e *Environment) CompileSource(src ipv4.Addr) SourceView {
	keep := 1 - e.LossRate
	for _, rule := range e.egress {
		if rule.Prefix.Contains(src) {
			keep *= 1 - rule.Drop
		}
	}
	return SourceView{keep: keep}
}

// Delivered reports whether a probe from the view's source survives the
// environment. It consumes at most one draw. r stays a concrete
// *rng.Xoshiro (not an interface) so the call neither escapes nor
// allocates on the driver's per-probe hot path.
func (v SourceView) Delivered(r *rng.Xoshiro) bool {
	return r.Bernoulli(v.keep)
}

// CanReach implements NAT topology semantics between two population hosts:
// a probe from host src can reach host dst when dst is public, or when both
// sit behind the same NAT site. (Egress from private space is unrestricted;
// inbound to private space requires being on the same network.)
func CanReach(src, dst population.Host) bool {
	if !dst.IsNATed() {
		return true
	}
	return src.Site == dst.Site
}
