package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/netenv"
	"repro/internal/trace"
	"repro/internal/worm"
)

// These hashes pin the IPv4 world's output across the Topology refactor:
// they were captured from the pre-refactor drivers, so any change to what
// RunExact or RunFast produces on an IPv4 scenario — including the trace
// byte stream — fails here even if both drivers change in lockstep. The
// configs below deliberately load every IPv4-specific feature the
// refactor touches: NAT sites, blocked destination space, sensor
// embedding, environment filters, and a fault plan.
//
// If a future PR changes IPv4 output ON PURPOSE (a semantic change, not a
// refactor), re-pin by running with -run TestIPv4GoldenByteIdentity -v
// and copying the printed hashes — and say so in the PR.
const (
	goldenExactW1 = "33a37b82805c1236b05fb0e59ab2f91579a557559b68b6ef682268c8647e15bf"
	goldenExactW4 = "33a37b82805c1236b05fb0e59ab2f91579a557559b68b6ef682268c8647e15bf"
	goldenFastW1  = "a37a0114f6a3a48da4bb2066a597d77185fa81bcc46b4a17bc4550ff70de5c23"
	goldenFastW4  = "a37a0114f6a3a48da4bb2066a597d77185fa81bcc46b4a17bc4550ff70de5c23"
)

// goldenSerialize renders every observable of a run byte-stably: the tick
// series with %x float times, per-host infection times, cumulative
// outcomes, recorded sensor hits, and the full trace NDJSON.
func goldenSerialize(t *testing.T, res *Result, hits []ipv4.Addr, rec *trace.Recorder) string {
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
	for _, dst := range hits {
		fmt.Fprintf(&b, "hit %d\n", uint32(dst))
	}
	b.WriteString("trace\n")
	if err := rec.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func goldenHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// addrCollector is a minimal HitRecorder: it retains monitored-probe
// destinations in arrival order so sensor routing is part of the pin.
type addrCollector struct{ hits []ipv4.Addr }

func (c *addrCollector) RecordHit(dst ipv4.Addr) { c.hits = append(c.hits, dst) }

func goldenPlan(t *testing.T) *faults.Plan {
	t.Helper()
	plan, err := faults.Compile(faults.Config{
		Seed: 99,
		Outages: []faults.OutageConfig{
			{Block: "201.20.64.0/22", Start: 10, End: 25},
		},
		Burst: &faults.BurstConfig{MeanGood: 12, MeanBad: 4, LossGood: 0.02, LossBad: 0.5},
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func goldenSensorSet() *ipv4.Set {
	return ipv4.SetOfPrefixes(
		ipv4.MustParsePrefix("200.10.0.0/20"),
		ipv4.MustParsePrefix("201.20.64.0/22"),
	)
}

func goldenExactRun(t *testing.T, workers int) string {
	t.Helper()
	pop := smallPop(t, 600, 77)
	if err := pop.AssignNAT(0.3, 8, 5); err != nil {
		t.Fatal(err)
	}
	env := &netenv.Environment{}
	if err := env.SetLossRate(0.05); err != nil {
		t.Fatal(err)
	}
	env.AddEgressFilter(ipv4.MustParsePrefix("20.0.0.0/8"), 0.5)
	col := &addrCollector{}
	rec := trace.NewRecorder(0)
	res, err := RunExact(ExactConfig{
		Pop:         pop,
		Factory:     worm.CodeRedIIFactory{},
		Env:         env,
		ScanRate:    500,
		TickSeconds: 1,
		MaxSeconds:  40,
		SeedHosts:   10,
		Seed:        4242,
		Workers:     workers,
		SensorSet:   goldenSensorSet(),
		OnProbe:     func(_, dst ipv4.Addr) { col.RecordHit(dst) },
		Faults:      goldenPlan(t),
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenSerialize(t, res, col.hits, rec)
}

func goldenFastRun(t *testing.T, workers int) string {
	t.Helper()
	pop := smallPop(t, 600, 77)
	if err := pop.AssignNAT(0.3, 8, 5); err != nil {
		t.Fatal(err)
	}
	col := &addrCollector{}
	rec := trace.NewRecorder(0)
	res, err := RunFast(FastConfig{
		Pop:         pop,
		Model:       NewCodeRedIIModel(),
		ScanRate:    300,
		TickSeconds: 1,
		MaxSeconds:  40,
		SeedHosts:   10,
		Seed:        4242,
		Workers:     workers,
		LossRate:    0.05,
		BlockedDst:  ipv4.SetOfPrefixes(ipv4.MustParsePrefix("30.0.0.0/8")),
		Sensors:     col,
		SensorSet:   goldenSensorSet(),
		Faults:      goldenPlan(t),
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenSerialize(t, res, col.hits, rec)
}

// TestIPv4GoldenByteIdentity holds both drivers to the pre-Topology-
// refactor output, byte for byte, across serial and parallel worker
// counts. Run with -v to see the hashes (for deliberate re-pinning).
func TestIPv4GoldenByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(*testing.T) string
	}{
		{"exact-workers1", goldenExactW1, func(t *testing.T) string { return goldenExactRun(t, 1) }},
		{"exact-workers4", goldenExactW4, func(t *testing.T) string { return goldenExactRun(t, 4) }},
		{"fast-workers1", goldenFastW1, func(t *testing.T) string { return goldenFastRun(t, 1) }},
		{"fast-workers4", goldenFastW4, func(t *testing.T) string { return goldenFastRun(t, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenHash(tc.run(t))
			t.Logf("%s hash %s", tc.name, got)
			if got != tc.want {
				t.Errorf("%s output hash %s, pinned pre-refactor hash %s", tc.name, got, tc.want)
			}
		})
	}
}
