package xcheck

import (
	"math/rand"
	"time"
)

// RunScenario is a determinism-contract root in this fixture tree, and no
// other root reaches it: its two sources are reported only while
// DeTraceRoots names it.
func RunScenario(seed uint64) int64 {
	return runOracles(seed) + jitter()
}

func runOracles(seed uint64) int64 {
	return int64(seed) + time.Since(time.Unix(0, 0)).Nanoseconds() // want "wall-clock dependence via time.Since; taints determinism root internal/xcheck.RunScenario (internal/xcheck.RunScenario → internal/xcheck.runOracles)"
}

func jitter() int64 {
	return rand.Int63() // want "unseeded randomness from math/rand.Int63; taints determinism root internal/xcheck.RunScenario (internal/xcheck.RunScenario → internal/xcheck.jitter)"
}
