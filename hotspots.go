// Package hotspots is a library for studying hotspots — deviations from
// uniform propagation in self-propagating malware — reproducing Cooke, Mao
// and Jahanian, "Hotspots: The Root Causes of Non-Uniformity in
// Self-Propagating Malware" (DSN 2006).
//
// The package is a small facade over the implementation packages, holding
// what the quick start below and the programs in examples/ call:
//
//   - synthesized vulnerable populations and greedy /16 hit lists;
//   - the exact cycle analysis of Slammer's flawed LCG;
//   - the darknet sensor substrate (the 11 IMS blocks), threshold
//     detector fleets, and their placement strategies;
//   - the aggregated SI epidemic driver with its scanner rate models;
//   - metrics registries that meter a run without perturbing it.
//
// The paper's tables and figures run through cmd/experiments.
//
// # Quick start
//
//	pop, _ := hotspots.SynthesizePopulation(hotspots.DefaultCodeRedIIPopulation(1))
//	list, _ := hotspots.BuildHitList(pop.Addrs(false), 100)
//	res, _ := hotspots.Simulate(hotspots.SimConfig{
//		Pop: pop, Model: hotspots.HitListRateModel(list),
//		ScanRate: 10, TickSeconds: 1, MaxSeconds: 600, SeedHosts: 25, Seed: 1,
//	})
//	fmt.Println(res.FractionInfected())
//
// See the examples/ directory for complete programs.
package hotspots

import (
	"repro/internal/cycle"
	"repro/internal/detect"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/worm"
)

// Address-space types.
type (
	// Addr is an IPv4 address as a host-order 32-bit integer.
	Addr = ipv4.Addr
	// Prefix is a CIDR block.
	Prefix = ipv4.Prefix
	// AddrSet is an interval set of IPv4 addresses.
	AddrSet = ipv4.Set
)

// ParseAddr parses a dotted-quad address.
func ParseAddr(s string) (Addr, error) { return ipv4.ParseAddr(s) }

// WormFactory builds per-host probe generators.
type WormFactory = worm.Factory

// CodeRedII scans with CRII's 1/8 / 1/2 / 3/8 mask preference.
var CodeRedII WormFactory = worm.CodeRedIIFactory{}

// BuildHitList greedily selects up to k /16s covering the most vulnerable
// hosts and returns them as an address set.
func BuildHitList(vulnerable []Addr, k int) (*AddrSet, float64) {
	prefixes, cover := worm.BuildGreedySlash16HitList(vulnerable, k)
	return ipv4.SetOfPrefixes(prefixes...), cover
}

// CycleMap is an affine map x ↦ A·x+B (mod 2^Bits) with exact cycle
// structure.
type CycleMap = cycle.Map

// SlammerCycleMap returns the cycle-analysis view of the Slammer LCG.
func SlammerCycleMap(variant int) CycleMap { return worm.SlammerMap(variant) }

// NewCycleMap builds the cycle-analysis view of an arbitrary affine map
// x ↦ a·x + b (mod 2^bits); a must be ≡ 1 (mod 4).
func NewCycleMap(a, b uint32, bits uint) (CycleMap, error) { return cycle.NewMap(a, b, bits) }

// Populations.
type (
	// Population is a synthesized vulnerable population.
	Population = population.Population
	// PopulationConfig controls synthesis.
	PopulationConfig = population.Config
	// CoverageAnchor pins the population's /16 coverage curve.
	CoverageAnchor = population.CoverageAnchor
)

// DefaultCodeRedIIPopulation reproduces the paper's measured CodeRedII
// population statistics (134,586 hosts, 47 /8s, 4,481 /16s).
func DefaultCodeRedIIPopulation(seed uint64) PopulationConfig {
	return population.DefaultCodeRedII(seed)
}

// SynthesizePopulation builds a population.
func SynthesizePopulation(cfg PopulationConfig) (*Population, error) {
	return population.Synthesize(cfg)
}

// Sensors and detection.
type (
	// SensorBlock is a named darknet block.
	SensorBlock = sensor.Block
	// SensorFleet routes probes to darknet sensors.
	SensorFleet = sensor.Fleet
	// DetectorFleet is a threshold-alerting detector fleet.
	DetectorFleet = detect.ThresholdFleet
)

// IMSBlocks returns the paper's eleven monitored blocks.
func IMSBlocks() []SensorBlock { return sensor.DefaultIMSBlocks() }

// NewSensorFleet builds a darknet fleet over blocks.
func NewSensorFleet(blocks []SensorBlock) (*SensorFleet, error) { return sensor.NewFleet(blocks) }

// NewDetectorFleet builds a threshold-alerting fleet over /24 prefixes.
func NewDetectorFleet(prefixes []Prefix, threshold uint64) (*DetectorFleet, error) {
	return detect.NewThresholdFleet(prefixes, threshold)
}

// RandomSlash24Placement places n distinct /24 detectors uniformly across
// routable space (avoiding exclude).
func RandomSlash24Placement(n int, seed uint64, exclude *AddrSet) ([]Prefix, error) {
	return detect.RandomSlash24s(n, seed, exclude)
}

// OnePerSlash16Placement places one /24 detector inside each given /16.
func OnePerSlash16Placement(slash16s []uint32, seed uint64) []Prefix {
	return detect.OnePerSlash16(slash16s, seed)
}

// Simulation.
type (
	// SimConfig configures the aggregated epidemic driver.
	SimConfig = sim.FastConfig
	// SimResult is a completed run.
	SimResult = sim.Result
	// RateModel decomposes a memoryless scanner for the fast driver.
	RateModel = sim.RateModel
)

// Simulate runs the aggregated (fast) epidemic driver.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.RunFast(cfg) }

// UniformRateModel returns the fast-driver model of a uniform scanner.
func UniformRateModel() RateModel { return sim.NewUniformModel() }

// HitListRateModel returns the fast-driver model of a hit-list scanner.
func HitListRateModel(set *AddrSet) RateModel { return &sim.HitListModel{List: set} }

// CodeRedIIRateModel returns the fast-driver model of CRII's preference.
func CodeRedIIRateModel() RateModel { return sim.NewCodeRedIIModel() }

// Observability. A MetricsRegistry threaded through SimConfig.Metrics
// meters a run without perturbing it: telemetry consumes no randomness, so
// a metered run is byte-identical to an unmetered one with the same seed.
type (
	// MetricsRegistry collects counters, gauges and fixed-bucket
	// histograms; snapshot it with WritePrometheus or WriteJSON.
	MetricsRegistry = obs.Registry
	// SimClock is simulated time advanced by the drivers; detection
	// latencies and spans are stamped from it, never the wall clock.
	SimClock = obs.SimClock
	// ProbeOutcome classifies the fate of one probe (delivered, filtered,
	// private-dropped, nat-blocked, sensor-hit, self-hit, infection).
	ProbeOutcome = sim.ProbeOutcome
	// ProbeOutcomeCounts tallies probes by outcome; SimResult.Outcomes
	// always sums to the run's emitted probe total.
	ProbeOutcomeCounts = sim.OutcomeCounts
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
