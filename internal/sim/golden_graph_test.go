package sim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/topo/proxgraph"
	"repro/internal/trace"
)

// These hashes pin the graph drivers' output against themselves over
// time, not just across worker counts: a change that alters every
// worker count alike still fails here. Each world runs to saturation
// with no StopWhenInfected, so the burnt-out tail — infected nodes with
// no susceptible neighbor left, and those that still draw sensor hits —
// is part of the hash.
//
// If a future change alters graph-driver output ON PURPOSE, re-pin by
// running with -run TestGraphGoldenByteIdentity -v and copying the
// printed hashes — and say so in the change description.
var goldenGraphWorlds = []struct {
	name      string
	cfg       proxgraph.Config
	seedHosts int
	exact     string
	fast      string
}{
	{
		name:      "default-radius",
		cfg:       proxgraph.Config{Nodes: 1500, Degree: 6, Sensors: 30, Seed: 11},
		seedHosts: 3,
		exact:     "14bece2cf7644c1a65d39893f3bed9ae832359d6af54bbea01b3a450442b011c",
		fast:      "22e4aeffa28a3935c4d875edaff6e8100825ac233a67e9d234985d2d543ec36b",
	},
	{
		// About 1.3 candidates per node: many isolated nodes and small
		// components, so degree-0 agents and early burn-out both occur.
		name:      "tiny-radius",
		cfg:       proxgraph.Config{Nodes: 1500, Degree: 6, Radius: 0.017, Sensors: 30, Seed: 12},
		seedHosts: 40,
		exact:     "f09b0e77937ad054aea862f7ee3352c239853e221beb5c3702b76a0c9ebb1cf2",
		fast:      "e4c5379840c1db2af7aa8551e213b9f5ec9aaaedbe6eeef877ac3008e24ea80c",
	},
	{
		// Sensors ≈ Nodes/4: most burnt-out nodes keep a sensor neighbor
		// and keep drawing sensor hits until the run ends.
		name:      "sensor-heavy",
		cfg:       proxgraph.Config{Nodes: 1500, Degree: 6, Sensors: 375, Seed: 13},
		seedHosts: 3,
		exact:     "2ae52522f5a2fcd2dcabd425009af12963403e08eb8aed017c7f6009b4a37b7c",
		fast:      "4ed6d4a20a4ae274a07a72888bd7b86655edf366c69d14f684b40a8f53a93fc0",
	},
}

// goldenGraphMaxSeconds outlasts every world's outbreak by a margin of
// quiet ticks; the test checks that margin, so the tail is really hashed.
const (
	goldenGraphMaxSeconds = 160
	goldenGraphQuietTicks = 20
)

func goldenGraphWorld(t *testing.T, cfg proxgraph.Config) topo.Graph {
	t.Helper()
	w, err := proxgraph.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkGraphGolden fails unless the run's last goldenGraphQuietTicks
// ticks infected nobody and its output hashes to want.
func checkGraphGolden(t *testing.T, res *Result, err error, rec *trace.Recorder, want string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series
	if len(s) <= goldenGraphQuietTicks {
		t.Fatalf("run stopped after %d ticks", len(s))
	}
	for _, ti := range s[len(s)-goldenGraphQuietTicks:] {
		if ti.NewInfections != 0 {
			t.Fatalf("outbreak still spreading at t=%v; raise goldenGraphMaxSeconds", ti.Time)
		}
	}
	got := goldenHash(serializeGraphRun(t, res, rec))
	t.Logf("hash %s", got)
	if got != want {
		t.Errorf("output hash %s, pinned hash %s", got, want)
	}
}

// TestGraphGoldenByteIdentity holds both graph drivers to pinned output
// hashes: the exact driver and the fast driver, each on 1 and 4 workers.
// Every variant of a driver must reproduce the same hash. Run with -v to
// see the hashes.
//
// The fast cases keep their "-noskip=false" and "-noskip=true" names from
// when FastConfig had a DisableTickSkip switch, so the case names stay
// stable. The graph driver never had a quiescent-tick path, so the two
// cases now differ in telemetry instead: noskip=true attaches a metrics
// registry and a simulated clock, which must not change the output.
func TestGraphGoldenByteIdentity(t *testing.T) {
	for _, wc := range goldenGraphWorlds {
		g := goldenGraphWorld(t, wc.cfg)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/exact-workers%d", wc.name, workers), func(t *testing.T) {
				rec := trace.NewRecorder(0)
				res, err := RunExact(ExactConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
					MaxSeconds: goldenGraphMaxSeconds, SeedHosts: wc.seedHosts, Seed: 4242,
					Workers: workers, Trace: rec})
				checkGraphGolden(t, res, err, rec, wc.exact)
			})
			for _, telemetry := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/fast-workers%d-noskip=%v", wc.name, workers, telemetry), func(t *testing.T) {
					rec := trace.NewRecorder(0)
					cfg := FastConfig{Topology: g, ScanRate: 2, TickSeconds: 1,
						MaxSeconds: goldenGraphMaxSeconds, SeedHosts: wc.seedHosts, Seed: 4242,
						Workers: workers, Trace: rec}
					if telemetry {
						cfg.Metrics, cfg.Clock = obs.NewRegistry(), &obs.SimClock{}
					}
					res, err := RunFast(cfg)
					checkGraphGolden(t, res, err, rec, wc.fast)
				})
			}
		}
	}
}

// goldenGraphPoisson pins the fast graph driver's rng.Poisson branch.
// The worlds above all run at ScanRate 2, where no agent's thinned rate
// reaches 30 and every draw takes the Knuth squeeze. At ScanRate 400 on
// the sensor-heavy world, fresh agents draw at λ up to 400, and nodes
// whose last susceptible neighbor is gone keep drawing sensor hits at
// λ = 400·sensors/degree, which is at least 30 for any sensor share
// above 7.5 %.
const goldenGraphPoisson = "4ee10542258d4ea7aa99f0da1842e0661f0e0d86054c21aac19d01d96c6c187a"

// TestGraphGoldenPoissonBranch runs the fast graph driver on the
// sensor-heavy world at ScanRate 400 with a trace attached, on 1 and 4
// workers, and holds both to one pinned hash. The run ends quiet, so
// every infected node has no susceptible neighbor left; the test checks
// that some of them draw sensor hits at λ ≥ 30.
func TestGraphGoldenPoissonBranch(t *testing.T) {
	wc := goldenGraphWorlds[2]
	g := goldenGraphWorld(t, wc.cfg)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			rec := trace.NewRecorder(0)
			res, err := RunFast(FastConfig{Topology: g, ScanRate: 400, TickSeconds: 1,
				MaxSeconds: goldenGraphMaxSeconds, SeedHosts: wc.seedHosts, Seed: 4242,
				Workers: workers, Trace: rec})
			checkGraphGolden(t, res, err, rec, goldenGraphPoisson)
			heavy := 0
			for id, it := range res.InfectionTime {
				sens := 0
				for _, v := range g.Neighbors(id) {
					if g.IsSensor(int(v)) {
						sens++
					}
				}
				if it >= 0 && 400*float64(sens)/float64(g.Degree(id)) >= 30 {
					heavy++
				}
			}
			if heavy == 0 {
				t.Error("no infected node draws sensor hits at λ ≥ 30")
			}
		})
	}
}
