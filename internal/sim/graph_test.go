package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/topo"
	"repro/internal/topo/proxgraph"
	"repro/internal/trace"
	"repro/internal/worm"
)

func testGraph(t *testing.T) topo.Graph {
	t.Helper()
	w, err := proxgraph.New(proxgraph.Config{Nodes: 700, Degree: 6, Sensors: 35, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func serializeGraphRun(t *testing.T, res *Result, rec *trace.Recorder) string {
	t.Helper()
	var b strings.Builder
	for _, ti := range res.Series {
		fmt.Fprintf(&b, "%x %d %d %d %v\n", ti.Time, ti.Infected, ti.NewInfections, ti.Probes, ti.Outcomes)
	}
	for id, it := range res.InfectionTime {
		if it >= 0 {
			fmt.Fprintf(&b, "inf %d %x\n", id, it)
		}
	}
	fmt.Fprintf(&b, "cum %v\n", res.Outcomes)
	b.WriteString("trace\n")
	if err := rec.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func runExactGraphCase(t *testing.T, g topo.Graph, workers int, withTrace bool) (*Result, string) {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg := ExactConfig{
		Topology:    g,
		ScanRate:    2,
		TickSeconds: 1,
		MaxSeconds:  30,
		SeedHosts:   5,
		Seed:        4242,
		Workers:     workers,
	}
	if withTrace {
		cfg.Trace = rec
	}
	res, err := RunExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, serializeGraphRun(t, res, rec)
}

func runFastGraphCase(t *testing.T, g topo.Graph, workers int, noskip, withTrace bool) (*Result, string) {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg := FastConfig{
		Topology:        g,
		ScanRate:        2,
		TickSeconds:     1,
		MaxSeconds:      30,
		SeedHosts:       5,
		Seed:            4242,
		Workers:         workers,
		DisableTickSkip: noskip,
	}
	if withTrace {
		cfg.Trace = rec
	}
	res, err := RunFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, serializeGraphRun(t, res, rec)
}

func TestRunExactGraphWorkersByteIdentical(t *testing.T) {
	g := testGraph(t)
	res, ref := runExactGraphCase(t, g, 1, true)
	if res.Final.Infected <= 5 {
		t.Fatalf("outbreak never spread past the %d seeds; adjust the scenario", 5)
	}
	for _, workers := range []int{2, 3, 4, 7} {
		if _, got := runExactGraphCase(t, g, workers, true); got != ref {
			t.Fatalf("workers=%d output differs from serial run", workers)
		}
	}
}

func TestRunFastGraphWorkersAndSkipByteIdentical(t *testing.T) {
	g := testGraph(t)
	res, ref := runFastGraphCase(t, g, 1, false, true)
	if res.Final.Infected <= 5 {
		t.Fatal("fast graph outbreak never spread past the seeds; adjust the scenario")
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, noskip := range []bool{false, true} {
			if workers == 1 && !noskip {
				continue // the reference run itself
			}
			if _, got := runFastGraphCase(t, g, workers, noskip, true); got != ref {
				t.Fatalf("workers=%d noskip=%v output differs from serial run", workers, noskip)
			}
		}
	}
}

func TestGraphTraceDoesNotPerturbRuns(t *testing.T) {
	g := testGraph(t)
	exOn, _ := runExactGraphCase(t, g, 4, true)
	exOff, _ := runExactGraphCase(t, g, 4, false)
	if exOn.Final != exOff.Final || len(exOn.Series) != len(exOff.Series) {
		t.Fatal("exact graph driver perturbed by trace attachment")
	}
	fsOn, _ := runFastGraphCase(t, g, 4, false, true)
	fsOff, _ := runFastGraphCase(t, g, 4, false, false)
	if fsOn.Final != fsOff.Final || len(fsOn.Series) != len(fsOff.Series) {
		t.Fatal("fast graph driver perturbed by trace attachment")
	}
}

func TestGraphOutcomeConservation(t *testing.T) {
	g := testGraph(t)
	res, _ := runExactGraphCase(t, g, 3, false)
	for i, ti := range res.Series {
		if ti.Outcomes.Total() != ti.Probes {
			t.Fatalf("tick %d: outcomes total %d != probes %d", i, ti.Outcomes.Total(), ti.Probes)
		}
	}
	fres, _ := runFastGraphCase(t, g, 3, false, false)
	for i, ti := range fres.Series {
		if ti.Outcomes.Total() != ti.Probes {
			t.Fatalf("fast tick %d: outcomes total %d != probes %d", i, ti.Outcomes.Total(), ti.Probes)
		}
	}
}

func TestGraphTraceTreeMatchesInfections(t *testing.T) {
	g := testGraph(t)
	for _, driver := range []string{"exact", "fast"} {
		rec := trace.NewRecorder(0)
		var res *Result
		var err error
		if driver == "exact" {
			res, err = RunExact(ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
				MaxSeconds: 30, SeedHosts: 5, Seed: 7, Trace: rec})
		} else {
			res, err = RunFast(FastConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
				MaxSeconds: 30, SeedHosts: 5, Seed: 7, Trace: rec})
		}
		if err != nil {
			t.Fatal(err)
		}
		tree, err := trace.BuildTree(rec.Events())
		if err != nil {
			t.Fatalf("%s: %v", driver, err)
		}
		if tree.Size() != res.Final.Infected {
			t.Fatalf("%s: tree size %d != final infected %d", driver, tree.Size(), res.Final.Infected)
		}
		// Graph edges carry true infectors; every edge must be a real
		// adjacency of the world.
		for _, e := range tree.Edges {
			if e.Infector < 0 {
				t.Fatalf("%s: edge with unattributed infector %d", driver, e.Infector)
			}
			found := false
			for _, nb := range g.Neighbors(e.Infector) {
				if int(nb) == e.Victim {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: infection edge %d->%d is not a graph edge", driver, e.Infector, e.Victim)
			}
		}
	}
}

func TestGraphSensorsNeverInfected(t *testing.T) {
	g := testGraph(t)
	res, _ := runExactGraphCase(t, g, 2, false)
	for id, it := range res.InfectionTime {
		if it >= 0 && g.IsSensor(id) {
			t.Fatalf("sensor node %d was infected at t=%v", id, it)
		}
	}
}

func TestGraphConfigConflicts(t *testing.T) {
	g := testGraph(t)
	pop := smallPop(t, 50, 3)
	base := func() ExactConfig {
		return ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1, MaxSeconds: 10, SeedHosts: 2, Seed: 1}
	}
	exactCases := []struct {
		field string
		mut   func(*ExactConfig)
	}{
		{"Pop", func(c *ExactConfig) { c.Pop = pop }},
		{"Factory", func(c *ExactConfig) { c.Factory = worm.UniformFactory{} }},
		{"SensorSet", func(c *ExactConfig) { c.SensorSet = ipv4.NewSet(ipv4.Interval{Lo: 1, Hi: 9}) }},
		{"OnProbe", func(c *ExactConfig) { c.OnProbe = func(_, _ ipv4.Addr) {} }},
	}
	for _, tc := range exactCases {
		cfg := base()
		tc.mut(&cfg)
		_, err := RunExact(cfg)
		var conflict *TopologyConflictError
		if !errors.As(err, &conflict) {
			t.Fatalf("exact %s on graph: got %v, want TopologyConflictError", tc.field, err)
		}
		if conflict.Field != tc.field || conflict.Topology != "proxgraph" {
			t.Fatalf("exact %s: conflict names %q on %q", tc.field, conflict.Field, conflict.Topology)
		}
	}
	fastBase := func() FastConfig {
		return FastConfig{Topology: g, ScanRate: 2, TickSeconds: 1, MaxSeconds: 10, SeedHosts: 2, Seed: 1}
	}
	fastCases := []struct {
		field string
		mut   func(*FastConfig)
	}{
		{"Pop", func(c *FastConfig) { c.Pop = pop }},
		{"Model", func(c *FastConfig) { c.Model = NewUniformModel() }},
		{"BlockedDst", func(c *FastConfig) { c.BlockedDst = ipv4.NewSet(ipv4.Interval{Lo: 1, Hi: 9}) }},
		{"LossRate", func(c *FastConfig) { c.LossRate = 0.1 }},
		{"Containment", func(c *FastConfig) { c.Containment = &Containment{Trigger: func() bool { return false }} }},
	}
	for _, tc := range fastCases {
		cfg := fastBase()
		tc.mut(&cfg)
		_, err := RunFast(cfg)
		var conflict *TopologyConflictError
		if !errors.As(err, &conflict) {
			t.Fatalf("fast %s on graph: got %v, want TopologyConflictError", tc.field, err)
		}
		if conflict.Field != tc.field || conflict.Topology != "proxgraph" {
			t.Fatalf("fast %s: conflict names %q on %q", tc.field, conflict.Field, conflict.Topology)
		}
	}
}

func TestGraphSeedHostsRange(t *testing.T) {
	g := testGraph(t) // 700 nodes, 35 sensors: 665 susceptible
	for _, bad := range []int{0, -1, 666, 700} {
		_, err := RunExact(ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
			MaxSeconds: 10, SeedHosts: bad, Seed: 1})
		if err == nil {
			t.Fatalf("SeedHosts=%d accepted on a 665-susceptible graph", bad)
		}
	}
	if _, err := RunExact(ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
		MaxSeconds: 10, SeedHosts: 665, Seed: 1}); err != nil {
		t.Fatalf("SeedHosts=665 rejected: %v", err)
	}
}

// TestFastGraphProbesCountBurntOutNodes checks the fast graph driver's
// per-tick probe total against its definition: every infected node of
// degree > 0 at tick start emits perHost probes, whether or not it still
// has a susceptible or sensor neighbor to draw on, and the total widens
// to the realized draws when those overshoot it.
func TestFastGraphProbesCountBurntOutNodes(t *testing.T) {
	g, err := proxgraph.New(proxgraph.Config{Nodes: 1200, Degree: 6, Radius: 0.03, Sensors: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const scanRate = 2.5 // fractional perHost exercises the truncation
	for _, workers := range []int{1, 3} {
		res, err := RunFast(FastConfig{Topology: g, ScanRate: scanRate, TickSeconds: 1,
			MaxSeconds: 120, SeedHosts: 20, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if last := res.Series[len(res.Series)-1]; last.NewInfections != 0 || res.Final.Infected <= 20 {
			t.Fatalf("workers=%d: run must spread and then saturate (final %d, last tick %+v)",
				workers, res.Final.Infected, last)
		}
		for _, ti := range res.Series {
			k := 0 // infected nodes of degree > 0 at tick start
			for id, it := range res.InfectionTime {
				if it >= 0 && it < ti.Time && g.Degree(id) > 0 {
					k++
				}
			}
			want := uint64(scanRate * float64(k))
			if drawn := uint64(ti.NewInfections) + ti.Outcomes[OutcomeSensorHit]; drawn > want {
				want = drawn
			}
			if ti.Probes != want {
				t.Fatalf("workers=%d t=%v: probes %d, want %d (k=%d)", workers, ti.Time, ti.Probes, want, k)
			}
		}
	}
}

// handGraph is a hand-wired topo.Graph for driver edge cases.
type handGraph struct {
	adj     [][]int32
	sensors []bool
}

func (g *handGraph) Name() string            { return "hand" }
func (g *handGraph) Nodes() int              { return len(g.adj) }
func (g *handGraph) Degree(i int) int        { return len(g.adj[i]) }
func (g *handGraph) Neighbors(i int) []int32 { return g.adj[i] }
func (g *handGraph) IsSensor(i int) bool     { return g.sensors[i] }
func (g *handGraph) SensorCount() int {
	n := 0
	for _, s := range g.sensors {
		if s {
			n++
		}
	}
	return n
}

// TestFastGraphSensorNeighborKeepsDrawing pins the fast driver's
// retirement rule: a node stops drawing only when it has neither a
// susceptible nor a sensor neighbor. On the path 0–1–2–3 with sensor
// leaf 4 on node 3, node 3 has no live neighbor once the path is
// infected, yet it must keep producing sensor hits every few ticks.
func TestFastGraphSensorNeighborKeepsDrawing(t *testing.T) {
	g := &handGraph{
		adj:     [][]int32{{1}, {0, 2}, {1, 3}, {2, 4}, {3}},
		sensors: []bool{false, false, false, false, true},
	}
	if err := topo.ValidateGraph(g); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		res, err := RunFast(FastConfig{Topology: g, ScanRate: 8, TickSeconds: 1,
			MaxSeconds: 60, SeedHosts: 1, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		saturated := -1
		for i, ti := range res.Series {
			if ti.Infected == 4 {
				saturated = i
				break
			}
		}
		if saturated < 0 || saturated > 30 {
			t.Fatalf("workers=%d: path not fully infected early (saturated at tick index %d)", workers, saturated)
		}
		// Node 3 draws sensor hits at rate 8·1/2 = 4 per tick after
		// saturation; count them over the remaining ticks.
		var tailHits uint64
		tail := res.Series[saturated+1:]
		for _, ti := range tail {
			tailHits += ti.Outcomes[OutcomeSensorHit]
		}
		if tailHits < uint64(len(tail)) {
			t.Fatalf("workers=%d: %d sensor hits over %d ticks after saturation, want about 4 per tick",
				workers, tailHits, len(tail))
		}
	}
}
