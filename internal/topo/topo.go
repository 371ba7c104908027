// Package topo describes the worlds a simulated epidemic spreads over.
//
// A driver config's Topology field holds a Graph: a neighbor-structured
// world such as proxgraph, where a worm reaches its next victim through
// an adjacency list. nil means the paper's flat IPv4 address space, the
// reference world, where victim pools are span unions over address-sorted
// host slots (VictimSpans) and sensors are address blocks embedded by
// interval-set intersection (EmbedSensors). Both helpers are pure
// functions of their inputs. DESIGN.md §15 states the determinism
// contract every world must meet.
package topo

import (
	"fmt"
	"sort"

	"repro/internal/ipv4"
)

// Span is a half-open slot range [Lo, Hi) over address-sorted hosts.
// Victim pools in the fast driver are unions of spans: membership is
// positional, so liveness can stay in a shared index and the spans
// themselves never change after construction.
type Span struct{ Lo, Hi int32 }

// VictimSpans maps a target set onto an address-sorted region of slots,
// appending one Span per interval that covers at least one slot. addrs
// is the region's slot-address slice and base its global offset, so the
// returned spans index all slots, not the region. Spans cover
// every host in the set regardless of infection state — liveness lives
// in the driver's shared index — so the result is immutable.
func VictimSpans(addrs []ipv4.Addr, base int32, set *ipv4.Set, dst []Span) []Span {
	for _, iv := range set.Intervals() {
		lo := sort.Search(len(addrs), func(i int) bool { return addrs[i] >= iv.Lo })
		hi := sort.Search(len(addrs), func(i int) bool { return addrs[i] > iv.Hi })
		if lo < hi {
			dst = append(dst, Span{Lo: base + int32(lo), Hi: base + int32(hi)})
		}
	}
	return dst
}

// EmbedSensors intersects the monitored address set with a component's
// target set, removes hard-blocked space, and freezes the result so
// parallel phase-1 workers can Select from it concurrently. The
// returned set may be empty; it is never nil.
func EmbedSensors(sensorSet, set, blocked *ipv4.Set) *ipv4.Set {
	inter := sensorSet.Intersect(set)
	if blocked != nil {
		inter = inter.Subtract(blocked)
	}
	inter.Freeze()
	return inter
}

// Graph is a neighbor-structured world: a fixed node set where an
// infected node probes only its own adjacency list. Node ids are
// 0..Nodes()-1 and double as the world's addresses (trace events record
// the victim's node id in the Addr field).
type Graph interface {
	// Name is a stable identifier ("proxgraph") used in scenario
	// serialization, checkpoint keys, and error messages.
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// Degree returns node's neighbor count. Isolated nodes (degree 0)
	// are legal; the drivers give them no probes.
	Degree(node int) int
	// Neighbors returns node's adjacency list in strictly ascending node
	// order. The slice aliases the world's storage — callers must not
	// modify it. Sorted adjacency is part of the determinism contract:
	// drivers iterate it positionally, never through a map.
	Neighbors(node int) []int32
	// IsSensor reports whether node is a sensor: probes to it are
	// observed and counted, and it can never become infected.
	IsSensor(node int) bool
	// SensorCount returns the number of sensor nodes.
	SensorCount() int
}

// ValidateGraph checks the structural invariants the sim drivers and
// xcheck oracles rely on: neighbor ids in range, strictly ascending
// adjacency (sorted, no duplicates, no self-loops), symmetric edges,
// and a sensor count that matches IsSensor. Cost is O(nodes + edges·log
// degree); worlds are validated once at construction, not per run.
func ValidateGraph(g Graph) error {
	n := g.Nodes()
	if n <= 0 {
		return fmt.Errorf("topo: graph %q has %d nodes", g.Name(), n)
	}
	sensors := 0
	for i := 0; i < n; i++ {
		if g.IsSensor(i) {
			sensors++
		}
		nbrs := g.Neighbors(i)
		if len(nbrs) != g.Degree(i) {
			return fmt.Errorf("topo: node %d Degree %d != len(Neighbors) %d", i, g.Degree(i), len(nbrs))
		}
		prev := int32(-1)
		for _, j := range nbrs {
			if int(j) < 0 || int(j) >= n {
				return fmt.Errorf("topo: node %d has out-of-range neighbor %d", i, j)
			}
			if int(j) == i {
				return fmt.Errorf("topo: node %d has a self-loop", i)
			}
			if j <= prev {
				return fmt.Errorf("topo: node %d adjacency not strictly ascending at %d", i, j)
			}
			prev = j
			back := g.Neighbors(int(j))
			k := sort.Search(len(back), func(p int) bool { return back[p] >= int32(i) })
			if k >= len(back) || back[k] != int32(i) {
				return fmt.Errorf("topo: edge %d->%d is not symmetric", i, j)
			}
		}
	}
	if sensors != g.SensorCount() {
		return fmt.Errorf("topo: SensorCount %d but %d nodes report IsSensor", g.SensorCount(), sensors)
	}
	return nil
}
