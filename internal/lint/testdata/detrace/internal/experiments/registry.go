package experiments

import "time"

// Runner computes one experiment from a seed.
type Runner func(seed uint64) int64

// Registry maps experiment ids to runners written as function literals.
// A literal belongs to Registry's body, so whatever reaches Registry
// reaches every runner it names.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig2": func(seed uint64) int64 { return runFig2(seed) },
	}
}

// RunObserved is a determinism-contract root in this fixture tree: it
// reaches runFig2 only through the map of function values Registry
// returns.
func RunObserved(id string, seed uint64) int64 {
	return Registry()[id](seed)
}

func runFig2(seed uint64) int64 {
	return int64(seed) + time.Now().UnixNano() // want "taints determinism root internal/experiments.RunObserved (internal/experiments.RunObserved → internal/experiments.Registry → internal/experiments.runFig2)"
}
