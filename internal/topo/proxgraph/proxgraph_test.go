package proxgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

func mustWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldMeetsGraphContract(t *testing.T) {
	// Also proves *World satisfies topo.Graph at compile time.
	var g topo.Graph = mustWorld(t, Config{Nodes: 500, Degree: 6, Sensors: 20, Seed: 42})
	if err := topo.ValidateGraph(g); err != nil {
		t.Fatal(err)
	}
	if g.Name() != "proxgraph" {
		t.Fatalf("Name() = %q", g.Name())
	}
	if g.SensorCount() != 20 {
		t.Fatalf("SensorCount() = %d, want 20", g.SensorCount())
	}
}

func TestDegreeBoundIsHard(t *testing.T) {
	w := mustWorld(t, Config{Nodes: 800, Degree: 4, Seed: 7})
	for i := 0; i < w.Nodes(); i++ {
		if d := w.Degree(i); d > 4 {
			t.Fatalf("node %d has degree %d > bound 4", i, d)
		}
	}
	if w.Edges() == 0 {
		t.Fatal("default-radius world built with zero edges")
	}
}

func TestSameConfigSameWorld(t *testing.T) {
	cfg := Config{Nodes: 600, Degree: 8, Sensors: 30, Seed: 123}
	a, b := mustWorld(t, cfg), mustWorld(t, cfg)
	if a.Edges() != b.Edges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Edges(), b.Edges())
	}
	for i := 0; i < a.Nodes(); i++ {
		if a.IsSensor(i) != b.IsSensor(i) {
			t.Fatalf("sensor choice differs at node %d", i)
		}
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("node %d degree differs: %d vs %d", i, len(na), len(nb))
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Fatalf("node %d adjacency differs at position %d", i, k)
			}
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	a := mustWorld(t, Config{Nodes: 400, Degree: 6, Seed: 1})
	b := mustWorld(t, Config{Nodes: 400, Degree: 6, Seed: 2})
	same := true
	for i := 0; same && i < a.Nodes(); i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			same = false
			break
		}
		for k := range na {
			if na[k] != nb[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical adjacency")
	}
}

func TestExplicitRadius(t *testing.T) {
	w := mustWorld(t, Config{Nodes: 300, Degree: 5, Radius: 0.25, Seed: 9})
	if w.Radius() != 0.25 {
		t.Fatalf("Radius() = %v, want 0.25", w.Radius())
	}
	if err := topo.ValidateGraph(w); err != nil {
		t.Fatal(err)
	}
	// A generous radius with a small node count must still respect the
	// degree bound via the mutual-kNN rule.
	dense := mustWorld(t, Config{Nodes: 100, Degree: 3, Radius: 1.5, Seed: 9})
	for i := 0; i < dense.Nodes(); i++ {
		if d := dense.Degree(i); d > 3 {
			t.Fatalf("dense node %d degree %d > 3", i, d)
		}
	}
	if err := topo.ValidateGraph(dense); err != nil {
		t.Fatal(err)
	}
}

func TestConfigRejection(t *testing.T) {
	bad := []Config{
		{Nodes: 1, Degree: 3},
		{Nodes: 0, Degree: 3},
		{Nodes: -5, Degree: 3},
		{Nodes: 100, Degree: 0},
		{Nodes: 100, Degree: -1},
		{Nodes: 100, Degree: 3, Sensors: -1},
		{Nodes: 100, Degree: 3, Sensors: 100},
		{Nodes: 100, Degree: 3, Radius: -0.1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}

	// Nodes·min(Degree, Nodes-1) past math.MaxInt32 would wrap the int32
	// ids and offsets; New must refuse before allocating anything sized
	// by the config (the first row alone would be 16 GiB of rows).
	huge := []Config{
		{Nodes: 1 << 20, Degree: 1 << 12},
		{Nodes: 1 << 31, Degree: 1},
		{Nodes: 1 << 40, Degree: 8},
		{Nodes: math.MaxInt, Degree: math.MaxInt},
		{Nodes: 1 << 16, Degree: 1 << 20, Radius: 0.5},
	}
	for _, cfg := range huge {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("config %+v accepted, want int32-ceiling error", cfg)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("config %+v allocated %d bytes before rejecting", cfg, grew)
		}
	}
	// The ceiling counts the stride, not Degree: a Degree far above
	// Nodes-1 is still a valid (if over-asked) world.
	if _, err := New(Config{Nodes: 64, Degree: math.MaxInt32, Seed: 1}); err != nil {
		t.Errorf("Degree above Nodes-1 rejected: %v", err)
	}
}

// positions replays the placement stream New draws from: two draws per
// node in id order on the world seed's stream 0.
func positions(cfg Config) (xs, ys []float64) {
	xs, ys = make([]float64, cfg.Nodes), make([]float64, cfg.Nodes)
	r := rng.NewXoshiroStream(cfg.Seed, proxStream, 0)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	return xs, ys
}

func TestPositionsInUnitSquare(t *testing.T) {
	xs, ys := positions(Config{Nodes: 256, Degree: 4, Seed: 55})
	for i := range xs {
		x, y := xs[i], ys[i]
		if x < 0 || x >= 1 || y < 0 || y >= 1 {
			t.Fatalf("node %d at (%v, %v) outside unit square", i, x, y)
		}
	}
}

// worldHash is the SHA-256 of every observable of a world, node by node
// in id order: degree, adjacency, sensor flag, and the bits of the
// position replayed from the world's placement stream.
func worldHash(w *World) string {
	xs, ys := positions(w.cfg)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < w.Nodes(); i++ {
		put(uint64(w.Degree(i)))
		for _, j := range w.Neighbors(i) {
			put(uint64(j))
		}
		if w.IsSensor(i) {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(xs[i]))
		put(math.Float64bits(ys[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldGoldenBytes pins the exact worlds New builds. The hashes were
// captured before the cell-order rewrite of link, so any change to
// placement, candidate ranking, mutual pruning or sensor choice fails
// here. The configs cover the default radius, a radius whose cells the
// ⌈√Nodes⌉ grid cap widens (317 cells a side, not 4096; mostly isolated
// nodes), a single-cell grid (Radius ≥ √2, every node a
// candidate), Degree above the candidate count, and the two-node floor.
//
// If a future change alters worlds ON PURPOSE, re-pin by running with
// -run TestWorldGoldenBytes -v and copying the printed hashes.
func TestWorldGoldenBytes(t *testing.T) {
	for _, tc := range goldenWorlds {
		w := mustWorld(t, tc.cfg)
		got := worldHash(w)
		t.Logf("%s: edges %d hash %s", tc.name, w.Edges(), got)
		if w.Edges() != tc.edges || got != tc.want {
			t.Errorf("%s: edges %d hash %s, want edges %d hash %s", tc.name, w.Edges(), got, tc.edges, tc.want)
		}
	}
}

// goldenWorlds are TestWorldGoldenBytes's pinned worlds.
var goldenWorlds = []struct {
	name  string
	cfg   Config
	edges int
	want  string
}{
	{"default-radius", Config{Nodes: 20_000, Degree: 8, Sensors: 200, Seed: 1}, 67787, "4cb2f6c8409614f5903a0a350f166fe5f7c47c6a33896583ff47a736768c6582"},
	{"grid-cap", Config{Nodes: 100_000, Degree: 4, Radius: 2.4e-4, Sensors: 50, Seed: 2}, 951, "1b9e702d42957214fab033b5f2bba49dd53379b09226230120f758e77f8b5195"},
	{"single-cell", Config{Nodes: 300, Degree: 6, Radius: 1.5, Sensors: 10, Seed: 3}, 740, "6617b8eebdff60c8f5559ae16d8d9cb3aed2ddfab1b505c94971e926dc59f013"},
	{"degree-over-candidates", Config{Nodes: 50, Degree: 60, Sensors: 5, Seed: 4}, 1224, "5d521c81274d254c671181275ad87eb9a51c5bd97772cbd5c7bf34254d8ae061"},
	{"two-nodes", Config{Nodes: 2, Degree: 1, Seed: 5}, 1, "0c57067a38b2d41cc6dd2512727f5725b63874b07471d9a80bd6a8116095e321"},
}

// TestLinkBandsByteIdentical builds worlds on every band count in
// {2, 3, 4, 7, 16} and requires the CSR that one band builds, whatever
// the host's core count: every golden world, the brute-force oracle's
// random worlds, a world with fewer grid rows than most of those band
// counts, and one whose band cuts fall on empty rows. The last has its
// nodes in two strips, cell rows 0 and 5 of an 11-row grid, so its
// 3-band cuts fall on rows 1 and 6, both empty, and its last band holds
// only empty rows.
func TestLinkBandsByteIdentical(t *testing.T) {
	check := func(name string, cfg Config, xs, ys []float64) {
		t.Helper()
		cfg.Nodes = len(xs)
		ref := build(cfg, xs, ys, 1)
		for _, bands := range []int{2, 3, 4, 7, 16} {
			w := build(cfg, xs, ys, bands)
			if !slices.Equal(w.nbrOff, ref.nbrOff) || !slices.Equal(w.nbrs, ref.nbrs) {
				t.Fatalf("%s (%+v): %d bands build another CSR than one band", name, cfg, bands)
			}
		}
	}
	for _, tc := range goldenWorlds {
		xs, ys := place(tc.cfg)
		check(tc.name, tc.cfg, xs, ys)
	}
	randomWorlds(check)

	few := Config{Nodes: 40, Degree: 3, Radius: 0.4, Seed: 6}
	if gw := gridWidth(few.Radius, few.Nodes); gw != 3 {
		t.Fatalf("few-rows world has a %d-wide grid, want 3", gw)
	}
	xs, ys := place(few)
	check("few-rows", few, xs, ys)

	const radius = 0.1
	r := rng.NewXoshiroStream(19, 0, 0)
	xs, ys = nil, nil
	for i := 0; i < 400; i++ {
		xs = append(xs, r.Float64())
		ys = append(ys, r.Float64()*0.08+float64(i%2)*0.46) // rows 0 and 5
	}
	g := newGrid(xs, ys, gridWidth(radius, len(xs)))
	rowStart := func(row int) int32 { return g.off[row*g.gw] }
	if cuts := bandCuts(g, 3); g.gw != 11 || !slices.Equal(cuts, []int{0, 1, 6, 11}) ||
		rowStart(1) != 200 || rowStart(5) != 200 || rowStart(6) != 400 {
		t.Fatalf("strip world: %d-wide grid, 3-band cuts %v, rows 1, 5 and 6 start at %d, %d and %d; want 11, [0 1 6 11], 200, 200, 400",
			g.gw, cuts, rowStart(1), rowStart(5), rowStart(6))
	}
	check("empty-row-cuts", Config{Degree: 5, Radius: radius}, xs, ys)
}

// BenchmarkGraph1MWorld builds the graph-1m benchmark's world — 10⁶
// nodes, Degree 8, 10⁴ sensors, seed 1 — and fails unless its edge count
// and worldHash match the values captured before the pruned ring search,
// the cell-ordered coordinates and the one-pass mutual prune. It pins
// the full-size world that TestWorldGoldenBytes's small configs stand in
// for. One build takes seconds, so it runs as a benchmark (-benchtime
// 1x), not a test.
func BenchmarkGraph1MWorld(b *testing.B) {
	const (
		edges = 3_388_675
		want  = "6d9b1c67805a5b0feb2ea8daaddbc30f5747541851a5964633b000a9dd5c5a75"
	)
	cfg := Config{Nodes: 1_000_000, Degree: 8, Sensors: 10_000, Seed: 1}
	for i := 0; i < b.N; i++ {
		w, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := worldHash(w); w.Edges() != edges || got != want {
			b.Fatalf("edges %d hash %s, want edges %d hash %s", w.Edges(), got, edges, want)
		}
		b.StartTimer()
	}
}
