package sim

import (
	"testing"
	"unsafe"

	"repro/internal/detect"
	"repro/internal/ipv4"
	"repro/internal/trace"
)

// goldenDupHeavy pins a fast run whose ticks draw mostly repeats: 3,000
// hosts at 10⁵ probes/s, where about nine victim draws in ten land on a
// host that an earlier draw of the same tick already claimed. The hash
// was captured before the merge deduplicated draws on their tick-start
// live rank, when it tested each drawn slot against the live bitset, so a
// dedup that keys on the wrong value or leaks claims into the next tick
// fails here.
const goldenDupHeavy = "a994db73f22cf27f6c6abe418a4b550b192ce23348ee126ac6732a8fb1457221"

func runDupHeavy(t *testing.T, workers int) string {
	t.Helper()
	pop := smallPop(t, 3000, 41)
	if err := pop.AssignNAT(0.3, 6, 43); err != nil {
		t.Fatal(err)
	}
	fleet := detect.MustNewThresholdFleet([]ipv4.Prefix{ipv4.MustParsePrefix("200.10.0.0/20")}, 3)
	rec := trace.NewRecorder(0)
	res, err := RunFast(FastConfig{
		Pop:         pop,
		Model:       NewCodeRedIIModel(),
		ScanRate:    100_000,
		TickSeconds: 1,
		MaxSeconds:  30,
		SeedHosts:   10,
		Seed:        17,
		Workers:     workers,
		Sensors:     fleet,
		SensorSet:   fleet.Union(),
		Trace:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return serializeFastRun(t, res, fleet, rec)
}

// TestFastDupHeavyGoldenByteIdentity runs the duplicate-heavy outbreak at
// Workers 1, 2 and 4; every run must hash to the pinned value.
func TestFastDupHeavyGoldenByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		got := goldenHash(runDupHeavy(t, workers))
		t.Logf("workers=%d hash %s", workers, got)
		if got != goldenDupHeavy {
			t.Errorf("workers=%d: hash %s, pinned %s", workers, got, goldenDupHeavy)
		}
	}
}

// TestFastEventIs12Bytes pins the phase-1 event size: at 10⁸ hosts the
// arrival buffers of the tick that crosses the stop target dominate the
// heap, so a wider event widens the peak.
func TestFastEventIs12Bytes(t *testing.T) {
	if got := unsafe.Sizeof(fastEvent{}); got != 12 {
		t.Fatalf("fastEvent is %d bytes, want 12", got)
	}
}
