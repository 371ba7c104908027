package topo

import (
	"strings"
	"testing"

	"repro/internal/ipv4"
)

func TestIPv4VictimSpansMatchesBruteForce(t *testing.T) {
	// A sorted region with gaps, duplicates-free, straddling the set's
	// interval boundaries.
	addrs := []ipv4.Addr{10, 11, 12, 50, 51, 99, 100, 101, 200, 255}
	set := ipv4.NewSet(
		ipv4.Interval{Lo: 11, Hi: 51},
		ipv4.Interval{Lo: 100, Hi: 150},
		ipv4.Interval{Lo: 250, Hi: 255},
	)
	spans := VictimSpans(addrs, 7, set, nil)
	// Brute force: the covered slots, shifted by the base.
	var want []int32
	for i, a := range addrs {
		if set.Contains(a) {
			want = append(want, 7+int32(i))
		}
	}
	var got []int32
	for _, sp := range spans {
		if sp.Lo >= sp.Hi {
			t.Fatalf("empty span %+v", sp)
		}
		for s := sp.Lo; s < sp.Hi; s++ {
			got = append(got, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("spans cover %d slots, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestIPv4VictimSpansEmptyIntersection(t *testing.T) {
	addrs := []ipv4.Addr{10, 20, 30}
	set := ipv4.NewSet(ipv4.Interval{Lo: 100, Hi: 200})
	if spans := VictimSpans(addrs, 0, set, nil); len(spans) != 0 {
		t.Fatalf("expected no spans, got %v", spans)
	}
}

func TestIPv4EmbedSensors(t *testing.T) {
	sensors := ipv4.NewSet(ipv4.Interval{Lo: 100, Hi: 199})
	target := ipv4.NewSet(ipv4.Interval{Lo: 0, Hi: 149})
	blocked := ipv4.NewSet(ipv4.Interval{Lo: 120, Hi: 129})
	inter := EmbedSensors(sensors, target, blocked)
	if inter == nil {
		t.Fatal("nil intersection")
	}
	if got, want := inter.Size(), uint64(40); got != want { // 100..149 minus 120..129
		t.Fatalf("embedded sensor size %d, want %d", got, want)
	}
	// Nil blocked set and empty results are both legal.
	if got := EmbedSensors(sensors, target, nil).Size(); got != 50 {
		t.Fatalf("unblocked size %d, want 50", got)
	}
	none := ipv4.NewSet(ipv4.Interval{Lo: 300, Hi: 400})
	if got := EmbedSensors(sensors, none, nil); got == nil || got.Size() != 0 {
		t.Fatalf("empty intersection should be a non-nil empty set, got %v", got)
	}
}

// fakeGraph is a hand-wired Graph for validator tests.
type fakeGraph struct {
	adj     [][]int32
	sensors []bool
	count   int
}

func (g *fakeGraph) Name() string            { return "fake" }
func (g *fakeGraph) Nodes() int              { return len(g.adj) }
func (g *fakeGraph) Degree(i int) int        { return len(g.adj[i]) }
func (g *fakeGraph) Neighbors(i int) []int32 { return g.adj[i] }
func (g *fakeGraph) IsSensor(i int) bool     { return g.sensors[i] }
func (g *fakeGraph) SensorCount() int        { return g.count }

func validFake() *fakeGraph {
	return &fakeGraph{
		adj:     [][]int32{{1, 2}, {0}, {0, 3}, {2}},
		sensors: []bool{false, false, false, true},
		count:   1,
	}
}

func TestValidateGraph(t *testing.T) {
	if err := ValidateGraph(validFake()); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*fakeGraph)
		want string
	}{
		{"asymmetric", func(g *fakeGraph) { g.adj[1] = []int32{0, 3} }, "not symmetric"},
		{"self-loop", func(g *fakeGraph) { g.adj[1] = []int32{0, 1} }, "self-loop"},
		{"unsorted", func(g *fakeGraph) { g.adj[0] = []int32{2, 1} }, "ascending"},
		{"duplicate", func(g *fakeGraph) { g.adj[0] = []int32{1, 1, 2} }, "ascending"},
		{"out-of-range", func(g *fakeGraph) { g.adj[0] = []int32{1, 9} }, "out-of-range"},
		{"sensor-count", func(g *fakeGraph) { g.count = 2 }, "SensorCount"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := validFake()
			tc.mut(g)
			err := ValidateGraph(g)
			if err == nil {
				t.Fatal("broken graph accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
