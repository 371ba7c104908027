package xcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// shrinkBudget caps the number of candidate scenarios the shrinker will
// check; each check is a full CheckScenario run, so the budget bounds
// shrinking to a predictable multiple of one reproduction.
const shrinkBudget = 48

// Shrink reduces a violating scenario to a smaller one that still
// violates the same oracle. It repeatedly tries a fixed list of
// reductions — shorter horizon, smaller population, fewer features —
// keeping any candidate for which the oracle still fires, until a full
// pass makes no progress or the budget runs out. The reproduction
// predicate is injected so tests can shrink against hooked-in bugs.
//
// Shrink never fails: on a flaky or vanishing violation it simply returns
// the smallest scenario that still reproduced.
func Shrink(sc Scenario, oracle string) Scenario {
	return shrinkWith(sc, func(c Scenario) bool {
		rep, err := CheckScenario(c)
		if err != nil {
			return false
		}
		for _, v := range rep.Violations {
			if v.Oracle == oracle {
				return true
			}
		}
		return false
	})
}

func shrinkWith(sc Scenario, violates func(Scenario) bool) Scenario {
	budget := shrinkBudget
	try := func(c Scenario) bool {
		if budget <= 0 {
			return false
		}
		budget--
		c.ID = 0 // shrunk scenarios are hand-shaped, not generator output
		if c.Validate() != nil {
			return false
		}
		return violates(c)
	}
	for progress := true; progress && budget > 0; {
		progress = false
		for _, reduce := range reductions {
			if c, changed := reduce(sc); changed && try(c) {
				sc = c
				progress = true
			}
		}
	}
	return sc
}

// reductions are the shrinker's moves, ordered cheapest-win-first: each
// takes a scenario and returns a strictly smaller candidate (changed =
// false when the move does not apply).
var reductions = []func(Scenario) (Scenario, bool){
	// Halve the horizon.
	func(s Scenario) (Scenario, bool) {
		ticks := int(s.MaxSeconds / s.TickSeconds)
		if ticks < 10 {
			return s, false
		}
		s.MaxSeconds = float64(ticks/2) * s.TickSeconds
		for i := range s.SensorOutages {
			if s.SensorOutages[i].Start >= s.MaxSeconds {
				s.SensorOutages[i].Start = 0
			}
		}
		return s, true
	},
	// Halve the population (and clamp dependent counts).
	func(s Scenario) (Scenario, bool) {
		if s.PopSize < 60 {
			return s, false
		}
		s.PopSize /= 2
		if s.SeedHosts > s.PopSize {
			s.SeedHosts = s.PopSize
		}
		if s.StopWhenInfect > s.PopSize {
			s.StopWhenInfect = s.PopSize
		}
		return s, true
	},
	// Drop the fault plan.
	func(s Scenario) (Scenario, bool) {
		if s.Faults == nil {
			return s, false
		}
		s.Faults = nil
		return s, true
	},
	// Drop scheduled sensor outages.
	func(s Scenario) (Scenario, bool) {
		if len(s.SensorOutages) == 0 {
			return s, false
		}
		s.SensorOutages = nil
		return s, true
	},
	// Drop the sensor fleet.
	func(s Scenario) (Scenario, bool) {
		if s.Sensors == 0 {
			return s, false
		}
		s.Sensors, s.SensorThreshold, s.SensorSeed, s.SensorOutages = 0, 0, 0, nil
		return s, true
	},
	// Flatten NAT.
	func(s Scenario) (Scenario, bool) {
		//lint:ignore float-eq zero is the flattened NAT state this move writes, so == 0 means there is nothing left to drop
		if s.NATFraction == 0 {
			return s, false
		}
		s.NATFraction, s.NATHostsPerSite, s.NATSeed = 0, 0, 0
		return s, true
	},
	// Clear the environment.
	func(s Scenario) (Scenario, bool) {
		//lint:ignore float-eq zero is the cleared environment this move writes, so == 0 means there is nothing left to drop
		if s.LossRate == 0 && s.EgressDrop == 0 {
			return s, false
		}
		s.LossRate, s.EgressDrop = 0, 0
		return s, true
	},
	// Reduce workers to the smallest still-parallel count.
	func(s Scenario) (Scenario, bool) {
		if s.Workers <= 2 {
			return s, false
		}
		s.Workers = 2
		return s, true
	},
	// Likewise for the fast driver's worker count.
	func(s Scenario) (Scenario, bool) {
		if s.FastWorkers <= 2 {
			return s, false
		}
		s.FastWorkers = 2
		return s, true
	},
	// Halve the scan rate.
	func(s Scenario) (Scenario, bool) {
		if s.ScanRate*s.TickSeconds < 4 {
			return s, false
		}
		s.ScanRate /= 2
		return s, true
	},
	// Tighten the population's footprint.
	func(s Scenario) (Scenario, bool) {
		if s.Slash16s <= s.Slash8s || s.Slash16s < 4 {
			return s, false
		}
		s.Slash16s /= 2
		if s.Slash16s < s.Slash8s {
			s.Slash16s = s.Slash8s
		}
		if s.HitListSlash16s > s.Slash16s {
			s.HitListSlash16s = s.Slash16s
		}
		return s, true
	},
	// Halve the graph world (graph scenarios only; IPv4 scenarios have
	// GraphNodes 0 and never take this move).
	func(s Scenario) (Scenario, bool) {
		if s.Topology != TopoProxGraph || s.GraphNodes < 40 {
			return s, false
		}
		s.GraphNodes /= 2
		if s.GraphSensors > s.GraphNodes/2 {
			s.GraphSensors = s.GraphNodes / 2
		}
		if sus := s.GraphNodes - s.GraphSensors; s.SeedHosts > sus {
			s.SeedHosts = sus
		}
		if s.StopWhenInfect > s.GraphNodes {
			s.StopWhenInfect = s.GraphNodes
		}
		return s, true
	},
	// Drop the graph's sensor nodes.
	func(s Scenario) (Scenario, bool) {
		if s.Topology != TopoProxGraph || s.GraphSensors == 0 {
			return s, false
		}
		s.GraphSensors = 0
		return s, true
	},
}

// WriteCorpusSeed stores the scenario as a Go fuzz corpus seed for
// FuzzScenarioJSON under dir (typically internal/xcheck/testdata/fuzz/
// FuzzScenarioJSON, where `go test` replays it forever after). It returns
// the written path.
func WriteCorpusSeed(dir string, sc Scenario) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("xcheck: %w", err)
	}
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(sc.JSON())) + ")\n"
	// Graph scenarios have no worm name; tag them by topology instead so
	// corpus filenames stay informative.
	tag := string(sc.Worm)
	if tag == "" {
		tag = sc.Topology
		if tag == "" {
			tag = TopoIPv4
		}
	}
	name := fmt.Sprintf("xcheck-%016x-%s", sc.ID, tag)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", fmt.Errorf("xcheck: %w", err)
	}
	return path, nil
}
