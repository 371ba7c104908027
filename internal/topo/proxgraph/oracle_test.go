package proxgraph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// bruteWorld is the mutual-kNN definition computed the slow way: every
// node ranks every other node by (d², id), keeps the first
// min(Degree, Nodes-1) of those within the radius, and an edge exists
// iff each endpoint kept the other. d² is computed exactly as link
// computes it, so the reference and the build agree bit for bit on
// every distance and tie.
func bruteWorld(cfg Config, xs, ys []float64) (off, nbrs []int32) {
	n := cfg.Nodes
	radius := cfg.Radius
	if radius == 0 {
		radius = DefaultRadius(n, cfg.Degree)
	}
	r2 := radius * radius
	k := prefStride(cfg)
	kept := make([]bool, n*n) // kept[i*n+j]: i keeps j
	for i := 0; i < n; i++ {
		var cs []cand
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			ddx := xs[j] - xs[i]
			ddy := ys[j] - ys[i]
			if d2 := ddx*ddx + ddy*ddy; d2 <= r2 {
				cs = append(cs, cand{d2: d2, id: int32(j)})
			}
		}
		slices.SortFunc(cs, func(a, b cand) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		for _, c := range cs[:min(k, len(cs))] {
			kept[i*n+int(c.id)] = true
		}
	}
	off = make([]int32, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if kept[i*n+j] && kept[j*n+i] {
				nbrs = append(nbrs, int32(j))
			}
		}
		off[i+1] = int32(len(nbrs))
	}
	return off, nbrs
}

// checkAgainstBrute builds the world over hand-placed positions on one
// band and fails unless its CSR equals the brute-force reference;
// TestLinkBandsByteIdentical holds every other band count to that build.
func checkAgainstBrute(t *testing.T, name string, cfg Config, xs, ys []float64) {
	t.Helper()
	cfg.Nodes = len(xs)
	w := build(cfg, xs, ys, 1)
	off, nbrs := bruteWorld(cfg, xs, ys)
	if !slices.Equal(w.nbrOff, off) || !slices.Equal(w.nbrs, nbrs) {
		for i := 0; i < cfg.Nodes; i++ {
			got, want := w.Neighbors(i), nbrs[off[i]:off[i+1]]
			if !slices.Equal(got, want) {
				t.Fatalf("%s (%+v): node %d at (%v, %v) has neighbors %v, want %v",
					name, cfg, i, xs[i], ys[i], got, want)
			}
		}
		t.Fatalf("%s (%+v): CSR differs from the brute-force reference", name, cfg)
	}
}

// TestPrunedSearchNearCellEdges places nodes where the pruned ring
// search can go wrong: one ulp inside a cell whose rounded left edge
// lies above them, with a tie in the node's own cell. Node 0 sits at
// fl(5/6)⁻, which files under column 5 of a 6-wide grid although it is
// below the computed edge fl(5/6); node 1 is δ to its left in column 4,
// and node 2 is δ further left, tying node 0 on d² with a higher id.
// Node 1's nearest is node 0, and the unshaved gap to column 5 is one
// ulp above δ, so a bound without slack skips the column. δ = 2⁻⁴⁰
// also defeats a slack relative to d²: the ulp is 10⁻⁴ of δ. Thirty
// filler nodes along y = 0.02, out of the three's reach, keep the
// ⌈√Nodes⌉ cap from narrowing the grid.
func TestPrunedSearchNearCellEdges(t *testing.T) {
	const radius = 0.19
	edge := 5.0 / 6
	inside := math.Nextafter(edge, 0)
	if int(inside*6) != 5 {
		t.Fatalf("%v does not file under column 5", inside)
	}
	for _, delta := range []float64{0x1p-10, 0x1p-40} {
		xs := []float64{inside, inside - delta, inside - 2*delta}
		ys := []float64{0.5, 0.5, 0.5}
		for j := 0; j < 30; j++ {
			xs = append(xs, (float64(j)+0.5)/30)
			ys = append(ys, 0.02)
		}
		if gw := gridWidth(radius, len(xs)); gw != 6 {
			t.Fatalf("radius %v over %d nodes gives a %d-wide grid, want 6", radius, len(xs), gw)
		}
		for degree := 1; degree <= 2; degree++ {
			checkAgainstBrute(t, fmt.Sprintf("delta %g", delta), Config{Degree: degree, Radius: radius}, xs, ys)
		}
	}
}

// TestLatticeOnCellEdges places nodes on a lattice at half-cell pitch,
// so every other lattice line is a cell edge and many d² tie exactly;
// ties are broken by id, and the ids run in a scrambled order.
func TestLatticeOnCellEdges(t *testing.T) {
	for _, radius := range []float64{0.3, 0.19, 0.1, 1.5} {
		// The lattice's (2·gw)² nodes keep the ⌈√Nodes⌉ cap from binding.
		gw := gridWidth(radius, math.MaxInt32)
		var xs, ys []float64
		for a := 0; a < 2*gw; a++ {
			for b := 0; b < 2*gw; b++ {
				xs = append(xs, float64(a)/float64(2*gw))
				ys = append(ys, float64(b)/float64(2*gw))
			}
		}
		perm := rng.NewXoshiroStream(7, 0, uint64(gw)).Shuffle(len(xs))
		sx, sy := make([]float64, len(xs)), make([]float64, len(ys))
		for i, p := range perm {
			sx[i], sy[i] = xs[p], ys[p]
		}
		xs, ys = sx, sy
		for _, degree := range []int{1, 2, 3, 4, 5, 8} {
			checkAgainstBrute(t, fmt.Sprintf("lattice r=%v", radius), Config{Degree: degree, Radius: radius}, xs, ys)
		}
	}
}

// TestDuplicatePoints stacks nodes on shared positions, so d² = 0 ties
// are broken by id alone. The tiny radius squares to zero: only exact
// duplicates are candidates, and the node's own cell must be scanned
// although its bound equals the candidate bound.
func TestDuplicatePoints(t *testing.T) {
	r := rng.NewXoshiroStream(11, 0, 0)
	for _, radius := range []float64{0, 0.05, 0.19, 1e-200} {
		var xs, ys []float64
		for len(xs) < 120 {
			x, y := r.Float64(), r.Float64()
			for c := r.Intn(5) + 1; c > 0; c-- {
				xs = append(xs, x)
				ys = append(ys, y)
			}
		}
		for _, degree := range []int{1, 2, 4, 7} {
			checkAgainstBrute(t, fmt.Sprintf("duplicates r=%v", radius), Config{Degree: degree, Radius: radius}, xs, ys)
		}
	}
}

// TestExtremeRadii covers radii whose cells the ⌈√Nodes⌉ grid cap widens
// (with clusters tight enough to link), a single cell, radii far past
// the unit square, and a Degree above every node's candidate count.
func TestExtremeRadii(t *testing.T) {
	r := rng.NewXoshiroStream(13, 0, 0)
	var xs, ys []float64
	for len(xs) < 200 {
		x, y := r.Float64(), r.Float64()
		for c := 0; c < 4; c++ {
			xs = append(xs, min(x+r.Float64()*3e-4, math.Nextafter(1, 0)))
			ys = append(ys, min(y+r.Float64()*3e-4, math.Nextafter(1, 0)))
		}
	}
	for _, radius := range []float64{2.4e-4, 1e-30, math.Sqrt2, 1.5, 1e300} {
		for _, degree := range []int{1, 3, 8, 500} {
			checkAgainstBrute(t, fmt.Sprintf("r=%v", radius), Config{Degree: degree, Radius: radius}, xs, ys)
		}
	}
}

// TestGridWidthCaps checks which of gridWidth's three bounds binds: the
// radius, ⌈√nodes⌉, or 4096 cells a side. The last binds only from
// 4095² + 1 nodes up, too many to build in a test, so this checks the
// width alone; TestExtremeRadii builds worlds under the √nodes cap.
func TestGridWidthCaps(t *testing.T) {
	for _, tc := range []struct {
		radius float64
		nodes  int
		want   int
	}{
		{0.19, 1000, 6}, // radius-sized cells
		{DefaultRadius(1_000_000, 8), 1_000_000, 314}, // graph-1m
		{2.4e-4, 800, 29},            // ⌈√800⌉
		{2.4e-4, 100_000, 317},       // ⌈√100000⌉
		{1e-30, 4095 * 4095, 4095},   // √ cap, exactly
		{1e-30, 4095*4095 + 1, 4096}, // 4096 cap
		{1e300, 100, 1},
	} {
		if got := gridWidth(tc.radius, tc.nodes); got != tc.want {
			t.Errorf("gridWidth(%v, %d) = %d, want %d", tc.radius, tc.nodes, got, tc.want)
		}
	}
}

// TestRandomWorldsMatchBruteForce draws a few hundred small worlds that
// mix uniform points, cell-edge lattice points, their ulp neighbors and
// duplicates, over default and explicit radii.
func TestRandomWorldsMatchBruteForce(t *testing.T) {
	randomWorlds(func(name string, cfg Config, xs, ys []float64) {
		checkAgainstBrute(t, name, cfg, xs, ys)
	})
}

// randomWorlds calls f on each of TestRandomWorldsMatchBruteForce's 300
// worlds, Nodes unset: the positions' length is the node count.
func randomWorlds(f func(name string, cfg Config, xs, ys []float64)) {
	radii := []float64{0, 0, 0.05, 0.1, 0.19, 0.3, 0.5, 1.5}
	r := rng.NewXoshiroStream(17, 0, 0)
	for world := 0; world < 300; world++ {
		cfg := Config{Degree: r.Intn(12) + 1, Radius: radii[r.Intn(len(radii))]}
		n := r.Intn(150) + 2
		radius := cfg.Radius
		if radius == 0 {
			radius = DefaultRadius(n, cfg.Degree)
		}
		gw := float64(gridWidth(radius, n))
		coord := func() float64 {
			switch r.Intn(4) {
			case 0:
				return float64(r.Intn(int(2*gw))) / (2 * gw)
			case 1:
				v := math.Nextafter(float64(r.Intn(int(gw)))/gw, float64(r.Intn(2)))
				return min(max(v, 0), math.Nextafter(1, 0))
			default:
				return r.Float64()
			}
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			if i > 0 && r.Intn(8) == 0 {
				xs[i], ys[i] = xs[i-1], ys[i-1]
				continue
			}
			xs[i], ys[i] = coord(), coord()
		}
		f(fmt.Sprintf("world %d", world), cfg, xs, ys)
	}
}
