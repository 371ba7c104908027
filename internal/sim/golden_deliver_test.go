package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

// These hashes pin the fast driver across a delivery probability that
// swings hard from tick to tick. Each group's stored λ is reused as an
// upper bound on its exact λ while its infected count and the tick's
// delivery probability are unchanged; a rise in delivery raises every
// exact λ, so a driver that kept the old values as bounds would settle
// some group-ticks at k = 0 that must fire. The burst plan alternates
// lossless and 90 %-loss stretches of about three ticks, so delivery
// both rises and falls many times per run. The hashes were captured from
// the driver that recomputed every group's λ on every rebuild.
var goldenDeliverSwing = [...]string{
	1: "1828b5cb0688b20f5f67df5f0b55c6277478d6eb8f747fa1b2ff37982cb51be4",
	2: "94913e7f862bb138ec675bce13cdb198008335948a1b3090a81437dfa5cdebcb",
	3: "8969e2ebe565af44b8077373614ffea4341aa9c7d7c785e7a2740026973431cc",
}

func deliverSwingRun(t *testing.T, seed uint64, workers int, noskip bool) string {
	t.Helper()
	pop := smallPop(t, 4000, 17)
	if err := pop.AssignNAT(0.3, 4, 9); err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Compile(faults.Config{
		Seed:  7,
		Burst: &faults.BurstConfig{MeanGood: 3, MeanBad: 3, LossGood: 0, LossBad: 0.9},
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	res, err := RunFast(FastConfig{
		Pop:             pop,
		Model:           NewCodeRedIIModel(),
		ScanRate:        2000,
		TickSeconds:     1,
		MaxSeconds:      120,
		SeedHosts:       5,
		Seed:            seed,
		Workers:         workers,
		DisableTickSkip: noskip,
		Faults:          plan,
		Trace:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenSerialize(t, res, nil, rec)
}

func TestFastDeliverSwingGolden(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for _, noskip := range []bool{false, true} {
					got := goldenHash(deliverSwingRun(t, seed, workers, noskip))
					t.Logf("seed=%d workers=%d noskip=%v hash %s", seed, workers, noskip, got)
					if got != goldenDeliverSwing[seed] {
						t.Errorf("seed=%d workers=%d noskip=%v: hash %s, pinned %s", seed, workers, noskip, got, goldenDeliverSwing[seed])
					}
				}
			}
		})
	}
}
