package experiments

import (
	"repro/internal/population"
)

// Scale selects experiment fidelity.
type Scale int

// Scales.
const (
	// Quick runs a reduced configuration suited to tests and benchmarks
	// (seconds, not minutes); shapes are preserved, magnitudes shrink.
	Quick Scale = iota + 1
	// Full runs the paper-scale configuration.
	Full
)

// Runner executes one experiment. o may be nil (no observability).
type Runner func(seed uint64, scale Scale, o *Obs) (*Result, error)

// Registry maps experiment ids ("table1", "fig5c", …) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": func(seed uint64, _ Scale, _ *Obs) (*Result, error) {
			return RunTable1(DefaultTable1(seed))
		},
		"table2": func(seed uint64, _ Scale, _ *Obs) (*Result, error) {
			return RunTable2(DefaultTable2(seed))
		},
		"fig1": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultFig1(seed)
			if scale == Quick {
				cfg.Hosts = 800
				cfg.MeanUptimeSeconds = 14400 // fewer sessions per host
			}
			return RunFig1(cfg)
		},
		"fig2": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultFig2(seed)
			if scale == Quick {
				cfg.Hosts = 8000
				cfg.WindowProbes = 1 << 21
			}
			return RunFig2(cfg)
		},
		"fig3": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultFig3(seed)
			if scale == Quick {
				cfg.WindowProbes = 1 << 20
			}
			return RunFig3(cfg)
		},
		"fig4": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultFig4(seed)
			if scale == Quick {
				cfg.Pop = quickPopulation(seed)
				cfg.QuarantineOutside = 1000000
				cfg.QuarantineNAT = 1000000
				cfg.WindowProbes = 2e6
			}
			return RunFig4(cfg)
		},
		"fig5a": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultFig5(seed)
			if scale == Quick {
				quickFig5(&cfg, seed)
			}
			cfg.attachObs(o, "fig5a")
			return RunFig5a(cfg)
		},
		"fig5b": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultFig5(seed)
			if scale == Quick {
				quickFig5(&cfg, seed)
			}
			cfg.attachObs(o, "fig5b")
			return RunFig5b(cfg)
		},
		"fig5c": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultFig5(seed)
			if scale == Quick {
				quickFig5(&cfg, seed)
			}
			cfg.attachObs(o, "fig5c")
			return RunFig5c(cfg)
		},
		"ext-threshold": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultExtThreshold(seed)
			if scale == Quick {
				quickFig5(&cfg.Fig5, seed)
				cfg.HitListSize = 200
			}
			cfg.Fig5.attachObs(o, "ext-threshold")
			return RunExtThreshold(cfg)
		},
		"ext-natsweep": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultExtNATSweep(seed)
			if scale == Quick {
				quickFig5(&cfg.Fig5, seed)
				cfg.Fig5.RandomSensors = 1000
			}
			cfg.Fig5.attachObs(o, "ext-natsweep")
			return RunExtNATSweep(cfg)
		},
		"ext-containment": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultExtContainment(seed)
			if scale == Quick {
				quickFig5(&cfg.Fig5, seed)
				cfg.Fig5.RandomSensors = 1000
			}
			cfg.Fig5.attachObs(o, "ext-containment")
			return RunExtContainment(cfg)
		},
		"ext-faults": func(seed uint64, scale Scale, o *Obs) (*Result, error) {
			cfg := DefaultExtFaults(seed)
			if scale == Quick {
				quickFig5(&cfg.Fig5, seed)
				cfg.HitListSize = 200
			}
			cfg.Fig5.attachObs(o, "ext-faults")
			cfg.Sweep = o.sweepOptions()
			cfg.Checkpoint = o.checkpoint()
			return RunExtFaults(cfg)
		},
		"ext-witty": func(seed uint64, _ Scale, _ *Obs) (*Result, error) {
			return RunExtWitty(DefaultExtWitty(seed))
		},
		"ext-ims": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultExtIMS(seed)
			if scale == Quick {
				cfg.Probes = 600000
			}
			return RunExtIMS(cfg)
		},
		"ext-prevalence": func(seed uint64, scale Scale, _ *Obs) (*Result, error) {
			cfg := DefaultExtPrevalence(seed)
			if scale == Quick {
				cfg.PopSize = 1000
				cfg.MaxSeconds = 150
			}
			return RunExtPrevalence(cfg)
		},
	}
}

// Names returns the registry ids in sorted order.
func Names() []string {
	return sortedKeys(Registry())
}

// quickPopulation is a ~20k-host population with the same clustering shape
// as the paper's, for fast runs.
func quickPopulation(seed uint64) population.Config {
	return population.Config{
		Size:     20000,
		Slash8s:  30,
		Slash16s: 800,
		Anchors: []population.CoverageAnchor{
			{K: 4, Share: 0.1060},
			{K: 30, Share: 0.5049},
			{K: 200, Share: 0.9133},
			{K: 800, Share: 1.0},
		},
		Include192Slash8: true,
		Seed:             seed,
	}
}

func quickFig5(cfg *Fig5Config, seed uint64) {
	cfg.Pop = quickPopulation(seed)
	cfg.HitListSizes = []int{4, 30, 200, 800}
	cfg.RandomSensors = 2000
	cfg.MaxSeconds = 900
	// A smaller population at the paper's 10 probes/s would take hours of
	// simulated time to take off; scale the rate so density×rate matches
	// the full configuration's epidemic tempo.
	cfg.ScanRate = 10 * 134586 / 20000
}
