// Package proxgraph builds deterministic proximity-graph worlds for the
// topology-aware sim drivers, after the WiFi-epidemiology setting of Hu
// et al.: nodes are routers scattered in the unit square, and a worm on
// one router can only probe the routers physically near it. The graph
// is a mutual-k-nearest-neighbor geometric graph — an undirected edge
// exists iff each endpoint ranks the other within its Degree nearest
// candidates inside the candidate Radius, ranked by (distance², id).
// The mutual rule gives a hard degree bound (≤ Degree) without the
// pruning order mattering, which keeps construction deterministic.
//
// Everything here is a pure function of Config: node placement and
// sensor choice come from seeded rng streams, the spatial grid uses
// counting-sort CSR layouts instead of maps, and no map is ever
// iterated, so the package holds the detrace/maporder determinism
// contract. For cache locality the build walks nodes in grid-cell
// order, not id order; each node keeps its Degree nearest candidates
// in a bounded top-k buffer under the total (distance², id) order, and
// its preference row is insertion-sorted to ascending id. Which node is
// visited first therefore never changes a row, and the adjacency CSR,
// assembled in id order from those rows, is ascending per node.
package proxgraph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// proxStream namespaces this package's rng streams; the id is drawn
// from "proxgrap" so world construction can never collide with the
// drivers' per-(agent,tick) streams on the same seed.
const proxStream = 0x70726f7867726170

// Config describes a proximity-graph world. The zero Radius asks for
// the default candidate radius, sized so a node expects to see a few
// times Degree candidates: sqrt(4·Degree / (π·Nodes)), clamped to the
// unit square's diameter.
type Config struct {
	Nodes   int     // router count; node ids are 0..Nodes-1
	Degree  int     // k in mutual-kNN: hard per-node degree bound
	Radius  float64 // candidate radius in the unit square; 0 = default
	Sensors int     // sensor nodes, sampled without replacement
	Seed    uint64  // world seed; same Config ⇒ same world, always
}

// World is an immutable proximity-graph topology. It implements
// topo.Graph; a single World is safe for concurrent readers.
type World struct {
	cfg      Config
	radius   float64
	xs, ys   []float64
	nbrOff   []int32 // CSR offsets, len Nodes+1
	nbrs     []int32 // CSR adjacency, ascending within each node
	sensor   []bool
	nSensors int
}

// DefaultRadius returns the candidate radius used when Config.Radius is
// zero: the expected candidate count under uniform placement is
// nodes·π·r², so this targets about 4·degree candidates per node.
func DefaultRadius(nodes, degree int) float64 {
	r := math.Sqrt(4 * float64(degree) / (math.Pi * float64(nodes)))
	if r > math.Sqrt2 {
		r = math.Sqrt2
	}
	return r
}

// New builds the world for cfg. Construction visits nodes in grid-cell
// order, so neighboring nodes scan the same cached cells, and passes
// each node's c nearby nodes once through a bounded top-Degree buffer:
// O(nodes·c) distance tests plus at most Degree shifts per candidate
// that displaces the current k-th, and O(nodes·min(Degree, Nodes-1))
// memory. c is sized by Radius, not by Nodes (about 250 at the default
// radius). A 10⁶-node, Degree-8 world builds in about 3 s on a 2-vCPU
// x86-64 host. Configs whose Nodes·min(Degree, Nodes-1) would overflow
// the int32 ids and offsets are rejected before any allocation.
func New(cfg Config) (*World, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("proxgraph: Nodes %d, need at least 2", cfg.Nodes)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("proxgraph: Degree %d, need at least 1", cfg.Degree)
	}
	if cfg.Sensors < 0 || cfg.Sensors >= cfg.Nodes {
		return nil, fmt.Errorf("proxgraph: Sensors %d outside [0, Nodes)", cfg.Sensors)
	}
	if math.IsNaN(cfg.Radius) || math.IsInf(cfg.Radius, 0) || cfg.Radius < 0 {
		return nil, fmt.Errorf("proxgraph: Radius %v is not a finite non-negative number", cfg.Radius)
	}
	// Node ids and the preference/adjacency offsets are int32; the
	// preference rows hold Nodes·stride ids, which bounds every offset.
	if k := prefStride(cfg); k > math.MaxInt32/cfg.Nodes {
		return nil, fmt.Errorf("proxgraph: Nodes %d × min(Degree, Nodes-1) %d exceeds the int32 id/offset ceiling %d",
			cfg.Nodes, k, math.MaxInt32)
	}
	w := &World{cfg: cfg, radius: cfg.Radius}
	//lint:ignore float-eq a zero Radius is the documented use-the-default value, never a computed one
	if w.radius == 0 {
		w.radius = DefaultRadius(cfg.Nodes, cfg.Degree)
	}
	w.place()
	w.link()
	w.markSensors()
	return w, nil
}

// place scatters the nodes over the unit square from one seeded stream,
// two draws per node in id order.
func (w *World) place() {
	n := w.cfg.Nodes
	w.xs = make([]float64, n)
	w.ys = make([]float64, n)
	r := rng.NewXoshiroStream(w.cfg.Seed, proxStream, 0)
	for i := 0; i < n; i++ {
		w.xs[i] = r.Float64()
		w.ys[i] = r.Float64()
	}
}

// cand is one candidate neighbor during preference ranking.
type cand struct {
	d2 float64
	id int32
}

// before is the total ranking order: nearer first, lower id on ties.
func (a cand) before(b cand) bool {
	//lint:ignore float-eq sort tie-break: exact equality keeps the ranking a strict total order, which a tolerance would make intransitive
	return a.d2 < b.d2 || (a.d2 == b.d2 && a.id < b.id)
}

// link builds the mutual-kNN adjacency. Stage 1 buckets nodes into a
// radius-sized grid with a counting-sort CSR (stable, so each cell's
// nodes stay in ascending id order). Stage 2 walks the grid cell by
// cell, row by row, so consecutive nodes share most of their candidate
// cells in cache, and ranks each node's in-radius candidates by
// (distance², id) — ids are unique, so the order is total — in a
// bounded top-k buffer that keeps only the Degree nearest. The kept ids
// become the node's preference row, a fixed-stride slot re-sorted to
// ascending id. Stage 3 keeps an edge iff it appears in both endpoints'
// preference rows; rows are ascending, so the final CSR is too.
func (w *World) link() {
	n := w.cfg.Nodes
	gw := int(1/w.radius) + 1
	if gw > 4096 {
		gw = 4096
	}
	cell := func(i int) int {
		cx := int(w.xs[i] * float64(gw))
		cy := int(w.ys[i] * float64(gw))
		if cx >= gw {
			cx = gw - 1
		}
		if cy >= gw {
			cy = gw - 1
		}
		return cy*gw + cx
	}
	nc := gw * gw
	cellOff := make([]int32, nc+1)
	for i := 0; i < n; i++ {
		cellOff[cell(i)+1]++
	}
	for c := 0; c < nc; c++ {
		cellOff[c+1] += cellOff[c]
	}
	cellNodes := make([]int32, n)
	fill := make([]int32, nc)
	for i := 0; i < n; i++ {
		c := cell(i)
		cellNodes[cellOff[c]+fill[c]] = int32(i)
		fill[c]++
	}

	// New has checked that n·k fits in int32.
	k := prefStride(w.cfg)
	pref := make([]int32, n*k)
	prefLen := make([]int32, n)
	r2 := w.radius * w.radius
	// A candidate can be at most radius away, i.e. at most
	// ceil(radius·gw) grid cells away on either axis; +1 absorbs the
	// floor truncation, over-covering by at most one cell ring.
	span := int(w.radius*float64(gw)) + 1
	top := make([]cand, 0, k)
	for cy := 0; cy < gw; cy++ {
		for cx := 0; cx < gw; cx++ {
			c := cy*gw + cx
			for _, i := range cellNodes[cellOff[c]:cellOff[c+1]] {
				top = w.nearest(top[:0], i, cx, cy, gw, span, r2, cellOff, cellNodes)
				// Insertion-sort the kept ids into the row, ascending.
				row := pref[int(i)*k : int(i)*k+len(top)]
				for a, t := range top {
					b := a
					for ; b > 0 && row[b-1] > t.id; b-- {
						row[b] = row[b-1]
					}
					row[b] = t.id
				}
				prefLen[i] = int32(len(top))
			}
		}
	}

	rowOf := func(i int) []int32 { return pref[i*k : i*k+int(prefLen[i])] }
	w.nbrOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		deg := int32(0)
		for _, j := range rowOf(i) {
			if prefHas(rowOf(int(j)), int32(i)) {
				deg++
			}
		}
		w.nbrOff[i+1] = w.nbrOff[i] + deg
	}
	w.nbrs = make([]int32, w.nbrOff[n])
	for i := 0; i < n; i++ {
		at := w.nbrOff[i]
		for _, j := range rowOf(i) {
			if prefHas(rowOf(int(j)), int32(i)) {
				w.nbrs[at] = j
				at++
			}
		}
	}
}

// nearest fills top, which must be empty with capacity k, with node i's
// best k in-radius candidates ascending by (distance², id). Node i sits
// in grid cell (cx, cy). A candidate that ranks after the current k-th
// is rejected before it is placed.
func (w *World) nearest(top []cand, i int32, cx, cy, gw, span int, r2 float64, cellOff, cellNodes []int32) []cand {
	k := cap(top)
	xs, ys := w.xs, w.ys
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= gw {
			continue
		}
		for dx := -span; dx <= span; dx++ {
			x := cx + dx
			if x < 0 || x >= gw {
				continue
			}
			c := y*gw + x
			for _, j := range cellNodes[cellOff[c]:cellOff[c+1]] {
				if j == i {
					continue
				}
				ddx := xs[j] - xs[i]
				ddy := ys[j] - ys[i]
				d2 := ddx*ddx + ddy*ddy
				if d2 > r2 {
					continue
				}
				nc := cand{d2: d2, id: j}
				p := len(top)
				if p == k {
					if !nc.before(top[k-1]) {
						continue
					}
					p-- // the old k-th drops out
				} else {
					top = top[:p+1]
				}
				for ; p > 0 && nc.before(top[p-1]); p-- {
					top[p] = top[p-1]
				}
				top[p] = nc
			}
		}
	}
	return top
}

// prefStride is the preference-row stride: Degree, capped at the most
// candidates any node can have.
func prefStride(cfg Config) int {
	return min(cfg.Degree, cfg.Nodes-1)
}

// prefHas reports whether the ascending preference row holds id. Rows
// hold at most Degree entries, so a linear early-exit scan beats a
// binary search.
func prefHas(row []int32, id int32) bool {
	for _, v := range row {
		if v >= id {
			return v == id
		}
	}
	return false
}

// markSensors samples the sensor nodes without replacement on the
// world seed's second stream, independent of placement draws.
func (w *World) markSensors() {
	w.sensor = make([]bool, w.cfg.Nodes)
	if w.cfg.Sensors == 0 {
		return
	}
	r := rng.NewXoshiroStream(w.cfg.Seed, proxStream, 1)
	for _, id := range r.SampleWithoutReplacement(w.cfg.Nodes, w.cfg.Sensors) {
		w.sensor[id] = true
	}
	w.nSensors = w.cfg.Sensors
}

// Name implements topo.Graph.
func (w *World) Name() string { return "proxgraph" }

// Nodes implements topo.Graph.
func (w *World) Nodes() int { return w.cfg.Nodes }

// Degree implements topo.Graph.
func (w *World) Degree(node int) int {
	return int(w.nbrOff[node+1] - w.nbrOff[node])
}

// Neighbors implements topo.Graph. The returned slice aliases the
// world's CSR storage and must not be modified.
func (w *World) Neighbors(node int) []int32 {
	return w.nbrs[w.nbrOff[node]:w.nbrOff[node+1]]
}

// IsSensor implements topo.Graph.
func (w *World) IsSensor(node int) bool { return w.sensor[node] }

// SensorCount implements topo.Graph.
func (w *World) SensorCount() int { return w.nSensors }

// Radius returns the candidate radius the world was built with (the
// default if Config.Radius was zero).
func (w *World) Radius() float64 { return w.radius }

// Edges returns the undirected edge count.
func (w *World) Edges() int { return len(w.nbrs) / 2 }

// Pos returns node's position in the unit square.
func (w *World) Pos(node int) (x, y float64) { return w.xs[node], w.ys[node] }
