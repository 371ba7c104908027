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
// order, not id order, over a copy of the coordinates laid out cell by
// cell. Each node searches its own cell and then rings of cells
// outward, skipping every cell that cannot hold a candidate ranking
// ahead of its current Degree-th, and keeps its Degree nearest
// candidates in a bounded top-k buffer under the total (distance², id)
// order; its preference row is insertion-sorted to ascending id. Which
// node or cell is visited first therefore never changes a row, so the
// search runs on GOMAXPROCS bands of grid rows at once. A parallel mark
// then flags each row entry whose pair is mutual, and one pass in id
// order compacts each row in place to its flagged entries, packing the
// rows into the adjacency CSR, which is ascending per node. The world
// is the same at every GOMAXPROCS.
package proxgraph

import (
	"fmt"
	"math"
	"runtime"
	"sync"

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

// New builds the world for cfg, as the package doc describes. At the
// default radius a node scans about 46 candidates in 4–5 cells, where
// the full 5×5-cell neighborhood holds about 250. Memory is
// O(nodes·min(Degree, Nodes-1)), and the work per node is sized by
// Radius and Degree, not by Nodes. The search and the mutual mark run
// on runtime.GOMAXPROCS(0) goroutines, and the world does not depend on
// how many. A 10⁶-node, Degree-8 world builds in about 0.9 s on a 2-vCPU
// x86-64 host, and in about 1.5 s on one of its cores. Configs whose
// Nodes·min(Degree, Nodes-1) would overflow the int32 ids and offsets
// are rejected before any allocation.
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
	xs, ys := place(cfg)
	return build(cfg, xs, ys, runtime.GOMAXPROCS(0)), nil
}

// build links the world for a validated cfg over the node positions
// (xs[i], ys[i]) in the unit square on up to bands goroutines, and marks
// its sensors. The world does not depend on bands.
func build(cfg Config, xs, ys []float64, bands int) *World {
	w := &World{cfg: cfg, radius: cfg.Radius}
	//lint:ignore float-eq a zero Radius is the documented use-the-default value, never a computed one
	if w.radius == 0 {
		w.radius = DefaultRadius(cfg.Nodes, cfg.Degree)
	}
	w.link(xs, ys, bands)
	w.markSensors()
	return w
}

// place scatters the nodes over the unit square from one seeded stream,
// two draws per node in id order.
func place(cfg Config) (xs, ys []float64) {
	xs = make([]float64, cfg.Nodes)
	ys = make([]float64, cfg.Nodes)
	r := rng.NewXoshiroStream(cfg.Seed, proxStream, 0)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	return xs, ys
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

// point is a node's position in the unit square.
type point struct{ x, y float64 }

// grid buckets the nodes into gw×gw cells (gridWidth) with a
// counting-sort CSR: cell c holds positions off[c]..off[c+1], and each
// position carries its node's id and a copy of its coordinates, so a
// cell's candidates are contiguous in memory. The sort is stable, so
// each cell's nodes stay in ascending id order.
type grid struct {
	gw  int
	off []int32
	ids []int32
	pts []point
}

// newGrid lays the nodes at (xs[i], ys[i]) out in cell order.
func newGrid(xs, ys []float64, gw int) *grid {
	col := func(v float64) int { return min(int(v*float64(gw)), gw-1) }
	cell := func(i int) int { return col(ys[i])*gw + col(xs[i]) }
	nc := gw * gw
	g := &grid{gw: gw, off: make([]int32, nc+1), ids: make([]int32, len(xs)), pts: make([]point, len(xs))}
	for i := range xs {
		g.off[cell(i)+1]++
	}
	for c := 0; c < nc; c++ {
		g.off[c+1] += g.off[c]
	}
	fill := make([]int32, nc)
	for i := range xs {
		c := cell(i)
		p := g.off[c] + fill[c]
		g.ids[p] = int32(i)
		g.pts[p] = point{xs[i], ys[i]}
		fill[c]++
	}
	return g
}

// gapSlack shaves every cell-rectangle gap in nearest's lower bound. A
// node lands in a cell by truncating v·gw, and the bound measures from
// the rounded edge b/gw, so a node can sit a few ulps of 1 (≤ 4·2⁻⁵³)
// outside the rectangle it is filed under. Shaved by far more than that,
// a gap never exceeds the computed |Δx| of any node in the cell, and
// since IEEE rounding is monotone, the bound never exceeds that node's
// computed d². The slack is 4·10⁻⁹ of the smallest cell (1/4096), so it
// costs no pruning.
const gapSlack = 1e-12

// gridWidth is link's grid width: radius-sized cells, but never more
// than 4096 cells a side nor more cells than ⌈√nodes⌉² (about one node
// per cell), so a tiny radius cannot make every build allocate and walk
// 16.8 M cells whatever its node count. Cells only index candidates, so
// the width never changes a world. The radius is clamped in float64, so
// extreme radii cannot overflow the int conversion.
func gridWidth(radius float64, nodes int) int {
	return min(int(min(1/radius, 4095))+1, int(math.Ceil(math.Sqrt(float64(nodes)))))
}

// link builds the mutual-kNN adjacency from the node positions on
// bands goroutines. Stage 1 lays the nodes out in a grid of cells at
// least radius wide (gridWidth, newGrid). Stage 2 cuts the grid's cell
// rows into at most min(bands, gw) contiguous bands of about equal node
// count (bandCuts) and ranks each band on its own goroutine (rankBand):
// it walks its rows cell by cell, so consecutive nodes share most of
// their candidate cells in cache, and keeps each node's Degree nearest
// in-radius candidates under the total (distance², id) order — ids are
// unique — in a bounded top-k buffer. The kept ids become the node's
// preference row, a fixed-stride slot sorted to ascending id. Each node
// lies in exactly one band, and a band writes only its own nodes' rows
// and row lengths. Stage 3 keeps an edge iff it appears in both
// endpoints' preference rows. Its mark splits the preference entries
// into ranges cut on 64-entry boundaries, so no two goroutines share a
// word of the keep bitset, and sets one bit per entry whose other
// endpoint's uncompacted row holds the entry's own node. No row changes
// while any mark runs. One serial pass in id order then compacts each
// row's kept entries in place, shifted left to its CSR offset, so the
// preference array becomes the adjacency. Rows are ascending, so the CSR
// is too. What a band ranks and marks depends only on the positions, so
// the world is the same at every band count.
func (w *World) link(xs, ys []float64, bands int) {
	n := w.cfg.Nodes
	gw := gridWidth(w.radius, n)
	g := newGrid(xs, ys, gw)

	// New has checked that n·k fits in int32.
	k := prefStride(w.cfg)
	pref := make([]int32, n*k)
	// nbrOff[i+1] holds row i's preference length until the compaction
	// sets it to the row's CSR end.
	nbrOff := make([]int32, n+1)
	cuts := bandCuts(g, min(bands, gw))
	fanOut(len(cuts)-1, func(b int) {
		g.rankBand(pref, nbrOff, k, w.radius, cuts[b], cuts[b+1])
	})

	keep := make([]uint64, (n*k+63)/64)
	words := len(keep)
	parts := min(bands, words)
	fanOut(parts, func(p int) {
		markMutual(keep, pref, nbrOff, k, p*words/parts*64, min((p+1)*words/parts*64, n*k))
	})

	// Every write lands at or before the entry just read.
	at := 0
	for i := 0; i < n; i++ {
		for e := i * k; e < i*k+int(nbrOff[i+1]); e++ {
			pref[at] = pref[e]
			at += int(keep[e>>6] >> (e & 63) & 1)
		}
		nbrOff[i+1] = int32(at)
	}
	w.nbrOff = nbrOff
	w.nbrs = pref[:at:at]
}

// bandCuts cuts the grid's gw cell rows into parts contiguous bands of
// about equal node count: band b holds rows cuts[b]..cuts[b+1], and
// cuts[b] is the first row starting at or after node position b·n/parts.
// A band may hold no rows, or only empty ones.
func bandCuts(g *grid, parts int) []int {
	n := len(g.ids)
	cuts := make([]int, parts+1)
	row := 0
	for b := 1; b < parts; b++ {
		for row < g.gw && int(g.off[row*g.gw]) < b*n/parts {
			row++
		}
		cuts[b] = row
	}
	cuts[parts] = g.gw
	return cuts
}

// fanOut runs work(0..parts-1), on the calling goroutine when parts is 1
// and on one goroutine per part otherwise, and returns when all are done.
func fanOut(parts int, work func(p int)) {
	if parts == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(p)
		}()
	}
	wg.Wait()
}

// rankBand fills the preference rows and row lengths of the nodes in
// cell rows lo..hi, with its own search scratch.
func (g *grid) rankBand(pref, nbrOff []int32, k int, radius float64, lo, hi int) {
	gw := g.gw
	r2 := radius * radius
	// A candidate can be at most radius away, i.e. at most
	// ceil(radius·gw) grid cells away on either axis; +1 absorbs the
	// floor truncation, over-covering by at most one cell ring. No ring
	// past gw-1 holds a cell. The ring count is clamped in float64, so
	// extreme radii cannot overflow the int conversion.
	span := int(min(radius*float64(gw), float64(gw))) + 1
	top := make([]cand, 0, k)
	gx := make([]float64, 2*span+1)
	gy := make([]float64, 2*span+1)
	for cy := lo; cy < hi; cy++ {
		for cx := 0; cx < gw; cx++ {
			c := cy*gw + cx
			for p := g.off[c]; p < g.off[c+1]; p++ {
				top = g.nearest(top[:0], p, cx, cy, r2, gx, gy)
				// Insertion-sort the kept ids into the row, ascending.
				i := int(g.ids[p])
				row := pref[i*k : i*k+len(top)]
				for a, t := range top {
					b := a
					for ; b > 0 && row[b-1] > t.id; b-- {
						row[b] = row[b-1]
					}
					row[b] = t.id
				}
				nbrOff[i+1] = int32(len(top))
			}
		}
	}
}

// markMutual sets keep bit e, for each preference entry e in [e0, e1),
// iff the entry's pair is mutual: row i's entry j is kept iff row j,
// uncompacted, holds i. An uncompacted row j holds i iff j ranked i, so
// the check is exact. e0 is a multiple of 64, and so is e1 unless it
// ends the array; each word of keep is stored once, whole.
func markMutual(keep []uint64, pref, nbrOff []int32, k, e0, e1 int) {
	var word uint64
	for i := e0 / k; i*k < e1; i++ {
		end := i*k + int(nbrOff[i+1])
		for e := max(i*k, e0); e < min(i*k+k, e1); e++ {
			if e < end {
				j := int(pref[e])
				if prefHas(pref[j*k:j*k+int(nbrOff[j+1])], int32(i)) {
					word |= 1 << (e & 63)
				}
			}
			if e&63 == 63 {
				keep[e>>6] = word
				word = 0
			}
		}
	}
	if e1&63 != 0 {
		keep[e1>>6] = word
	}
}

// nearest fills top, which must be empty with capacity k, with the best
// k in-radius candidates ascending by (distance², id) of the node at
// grid position p, which sits in cell (cx, cy). It scans that cell,
// then the rings of cells around it out to len(gx)/2 cells away. A cell
// is skipped when the d² lower bound of its rectangle, less gapSlack on
// each axis, is strictly above the current bound: r² while the buffer
// has room, then the k-th candidate's d². Every node in a skipped cell
// would rank after the current k-th, and the bound only tightens. gx
// and gy are scratch for the per-column and per-row gaps. A candidate
// that ranks after the current k-th is rejected before it is placed.
func (g *grid) nearest(top []cand, p int32, cx, cy int, r2 float64, gx, gy []float64) []cand {
	k := cap(top)
	span := len(gx) / 2
	pts, gw := g.pts, g.gw
	pi := pts[p]
	for d := -span; d <= span; d++ {
		gx[d+span] = cellGap(pi.x, cx, cx+d, gw)
		gy[d+span] = cellGap(pi.y, cy, cy+d, gw)
	}
	for ring := 0; ring <= span; ring++ {
		for dy := -ring; dy <= ring; dy++ {
			y := cy + dy
			if y < 0 || y >= gw {
				continue
			}
			// Inner rows of a ring hold only its two end cells.
			step := 1
			if ring > 0 && dy != -ring && dy != ring {
				step = 2 * ring
			}
			for dx := -ring; dx <= ring; dx += step {
				x := cx + dx
				if x < 0 || x >= gw {
					continue
				}
				bound := r2
				if len(top) == k {
					bound = top[k-1].d2
				}
				ex, ey := gx[dx+span], gy[dy+span]
				if ex*ex+ey*ey > bound {
					continue
				}
				c := y*gw + x
				for q := g.off[c]; q < g.off[c+1]; q++ {
					if q == p {
						continue
					}
					ddx := pts[q].x - pi.x
					ddy := pts[q].y - pi.y
					d2 := ddx*ddx + ddy*ddy
					if d2 > r2 {
						continue
					}
					nc := cand{d2: d2, id: g.ids[q]}
					at := len(top)
					if at == k {
						if !nc.before(top[k-1]) {
							continue
						}
						at-- // the old k-th drops out
					} else {
						top = top[:at+1]
					}
					for ; at > 0 && nc.before(top[at-1]); at-- {
						top[at] = top[at-1]
					}
					top[at] = nc
				}
			}
		}
	}
	return top
}

// cellGap is the distance, less gapSlack and floored at zero, from
// coordinate v in grid column (or row) from to the nearest edge of
// column to, on a gw-wide grid.
func cellGap(v float64, from, to, gw int) float64 {
	var d float64
	switch {
	case to > from:
		d = float64(to)/float64(gw) - v
	case to < from:
		d = v - float64(to+1)/float64(gw)
	default:
		return 0
	}
	return max(d-gapSlack, 0)
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
