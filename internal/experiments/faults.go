package experiments

// ext-faults: Section 5's detection results assume a perfectly healthy
// measurement apparatus — every sensor up, every probe either delivered or
// uniformly lost, every report instant. This extension re-runs the Fig 5b
// setting under a deterministic fault plan (internal/faults) and sweeps the
// damage: what fraction of the detector fleet can be withdrawn, and how
// much bursty loss the network can add, before the first alarm slips away?

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/worm"
)

// ExtFaultsConfig parameterizes the fault-injection sweep.
type ExtFaultsConfig struct {
	// Fig5 carries the population and outbreak parameters.
	Fig5 Fig5Config
	// HitListSize fixes the worm's list length.
	HitListSize int
	// OutageFractions are the detector-fleet fractions withdrawn for the
	// whole run, swept as the X axis. Withdrawal is nested: the withdrawn
	// detectors are a prefix of one seed-pinned shuffle of the fleet, so a
	// larger fraction removes a superset of what a smaller one removes and
	// degradation is monotone by construction, not by luck.
	OutageFractions []float64
	// BurstLosses are the Gilbert–Elliott bad-state loss probabilities,
	// one series per value; 0 disables the burst channel for that series.
	BurstLosses []float64
	// BurstMeanGood and BurstMeanBad are the channel dwell means (seconds).
	BurstMeanGood float64
	BurstMeanBad  float64
	// QuorumFraction is the alert quorum evaluated both naively (over the
	// whole fleet) and degraded (renormalized over in-service detectors).
	QuorumFraction float64
	// Sweep tunes the resilient pool the grid runs on (retries, deadlines,
	// salvage); the zero value is the plain fail-fast pool.
	Sweep sweep.Options
	// Checkpoint, when non-nil, persists each completed grid point so an
	// interrupted sweep resumes without recomputing finished points.
	Checkpoint *sweep.Checkpoint
}

// DefaultExtFaults uses the paper's 1000-prefix hit-list regime (the Fig 5b
// case where ~20% of sensors alert) and degrades it.
func DefaultExtFaults(seed uint64) ExtFaultsConfig {
	return ExtFaultsConfig{
		Fig5:            DefaultFig5(seed),
		HitListSize:     1000,
		OutageFractions: []float64{0, 0.2, 0.4, 0.6},
		BurstLosses:     []float64{0, 0.5},
		BurstMeanGood:   30,
		BurstMeanBad:    10,
		QuorumFraction:  0.15,
	}
}

// extFaultsFleet places one detector per populated /16, densest /16
// first, and returns the fleet with the seed-pinned random order in which
// outages withdraw it: fraction f withdraws the order's first ⌈f·N⌉
// detectors, so selections nest across the sweep.
func extFaultsFleet(pop *population.Population, seed uint64) ([]ipv4.Prefix, []int) {
	var slash16s []uint32
	for _, sc := range pop.Slash16Histogram() {
		slash16s = append(slash16s, sc.Network)
	}
	placements := detect.OnePerSlash16(slash16s, seed+3)
	return placements, faults.WithdrawalOrder(seed, len(placements))
}

// extFaultsPoint is one grid point of the sweep.
type extFaultsPoint struct {
	Burst  float64
	Outage float64
}

func (p extFaultsPoint) label() string {
	return fmt.Sprintf("burst=%g outage=%g", p.Burst, p.Outage)
}

// extFaultsOutcome is one completed grid point. Fields are exported and
// JSON-tagged because outcomes round-trip through the sweep checkpoint.
type extFaultsOutcome struct {
	Burst          float64 `json:"burst"`
	Outage         float64 `json:"outage"`
	DownBlocks     int     `json:"down_blocks"`
	NumUp          int     `json:"num_up"`
	FirstAlarm     float64 `json:"first_alarm"` // -1: no detector ever alerted
	Infected       float64 `json:"infected"`
	Alerted        float64 `json:"alerted"`    // over the whole fleet (naive)
	AlertedUp      float64 `json:"alerted_up"` // over in-service detectors
	QuorumNaive    bool    `json:"quorum_naive"`
	QuorumDegraded bool    `json:"quorum_degraded"`
}

// RunExtFaults sweeps outage fraction × burst loss over the Fig 5b
// detection setting. Every grid point replays the same outbreak (same
// simulation seed; fault-plan queries consume no simulation randomness and
// the fast driver draws sensor landings before checking their block's
// posture), so within one burst level the hit sequence each detector sees
// is pointwise dominated as the outage fraction grows: the first alarm can
// only hold or slip later, never improve. The grid runs on the resilient
// sweep pool and checkpoints per point when cfg.Checkpoint is set.
func RunExtFaults(cfg ExtFaultsConfig) (*Result, error) {
	if len(cfg.OutageFractions) == 0 || len(cfg.BurstLosses) == 0 {
		return nil, errors.New("experiments: empty fault grid")
	}
	for _, f := range cfg.OutageFractions {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("experiments: outage fraction %v outside [0,1]", f)
		}
	}
	for _, b := range cfg.BurstLosses {
		if b < 0 || b > 1 {
			return nil, fmt.Errorf("experiments: burst loss %v outside [0,1]", b)
		}
		if b > 0 && (cfg.BurstMeanGood <= 0 || cfg.BurstMeanBad <= 0) {
			return nil, errors.New("experiments: burst losses need positive dwell means")
		}
	}
	pop, err := population.Synthesize(cfg.Fig5.Pop)
	if err != nil {
		return nil, err
	}
	prefixes, cover := worm.BuildGreedySlash16HitList(pop.Addrs(false), cfg.HitListSize)
	set := ipv4.SetOfPrefixes(prefixes...)
	placements, order := extFaultsFleet(pop, cfg.Fig5.Seed)

	var grid []extFaultsPoint
	for _, b := range cfg.BurstLosses {
		for _, f := range cfg.OutageFractions {
			grid = append(grid, extFaultsPoint{Burst: b, Outage: f})
		}
	}

	var done atomic.Int64
	run := func(_ context.Context, pt extFaultsPoint) (extFaultsOutcome, error) {
		// The last tick lands exactly on MaxSeconds; pad the horizon so a
		// "whole run" window covers it (spans are half-open).
		horizon := cfg.Fig5.MaxSeconds + 1
		n := int(pt.Outage*float64(len(placements)) + 0.5)
		fcfg := faults.Config{Seed: cfg.Fig5.Seed + 41}
		for _, idx := range order[:n] {
			fcfg.Outages = append(fcfg.Outages, faults.OutageConfig{
				Block: placements[idx].String(),
				Start: 0,
				End:   horizon,
			})
		}
		if pt.Burst > 0 {
			fcfg.Burst = &faults.BurstConfig{
				MeanGood: cfg.BurstMeanGood,
				MeanBad:  cfg.BurstMeanBad,
				LossGood: 0,
				LossBad:  pt.Burst,
			}
		}
		plan, err := faults.Compile(fcfg, horizon)
		if err != nil {
			return extFaultsOutcome{}, err
		}
		fleet, err := detect.NewThresholdFleet(placements, cfg.Fig5.AlertThreshold)
		if err != nil {
			return extFaultsOutcome{}, err
		}
		fleet.SetDownSet(plan.DownSpace())
		first := -1.0
		// Grid points run concurrently against one recorder; scoping stamps
		// each point's events with its label so the interleaved dump stays
		// attributable (per-point content is deterministic, cross-point
		// interleaving follows completion order).
		rec := cfg.Fig5.Trace.Scoped("ext-faults " + pt.label())
		clk := &obs.SimClock{}
		if rec != nil {
			fleet.Trace(rec, clk)
		}
		res, err := sim.RunFast(sim.FastConfig{
			Pop:         pop,
			Model:       &sim.HitListModel{List: set},
			ScanRate:    cfg.Fig5.ScanRate,
			TickSeconds: 1,
			MaxSeconds:  cfg.Fig5.MaxSeconds,
			SeedHosts:   cfg.Fig5.SeedHosts,
			// Same outbreak at every grid point: only the apparatus varies.
			Seed:      cfg.Fig5.Seed + 31,
			Sensors:   fleet,
			SensorSet: fleet.Union(),
			Faults:    plan,
			Metrics:   cfg.Fig5.Metrics,
			Trace:     rec,
			Clock:     clk,
			// Grid points run concurrently against one registry; both knobs
			// are needed to keep each point's series distinct.
			MetricLabels: []string{
				"burst", fmt.Sprintf("%g", pt.Burst), "outage", fmt.Sprintf("%g", pt.Outage),
			},
			OnTick: func(ti sim.TickInfo) bool {
				if first < 0 && fleet.NumAlerted() > 0 {
					first = ti.Time
				}
				return true
			},
		})
		if err != nil {
			return extFaultsOutcome{}, err
		}
		cfg.Fig5.progress(int(done.Add(1)), len(grid))
		return extFaultsOutcome{
			Burst:          pt.Burst,
			Outage:         pt.Outage,
			DownBlocks:     n,
			NumUp:          fleet.NumUp(),
			FirstAlarm:     first,
			Infected:       res.FractionInfected(),
			Alerted:        fleet.AlertedFraction(),
			AlertedUp:      fleet.AlertedFractionOfUp(),
			QuorumNaive:    detect.QuorumReached(fleet, cfg.QuorumFraction),
			QuorumDegraded: detect.QuorumReachedDegraded(fleet, cfg.QuorumFraction),
		}, nil
	}

	opts := cfg.Sweep
	if opts.TaskLabel == nil {
		opts.TaskLabel = func(i int) string { return grid[i].label() }
	}
	key := func(_ int, pt extFaultsPoint) string {
		return fmt.Sprintf("ext-faults|seed=%d|pop=%d|hl=%d|rate=%g|T=%g|thr=%d|burst=%g|outage=%g",
			cfg.Fig5.Seed, cfg.Fig5.Pop.Size, cfg.HitListSize, cfg.Fig5.ScanRate,
			cfg.Fig5.MaxSeconds, cfg.Fig5.AlertThreshold, pt.Burst, pt.Outage)
	}
	outcomes, err := sweep.MapCheckpointed(cfg.Fig5.ctx(), grid, key, run, cfg.Checkpoint, opts)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	table := Table{
		ID:    "Extension: fault injection",
		Title: fmt.Sprintf("Detection under sensor outages and bursty loss (%d-prefix hit-list covering %.1f%%)", cfg.HitListSize, 100*cover),
		Columns: []string{
			"Burst loss", "Outage", "Down/Up", "First alarm s",
			"% alerted", "% alerted of up", fmt.Sprintf("Quorum(%.0f%%) naive/degraded", 100*cfg.QuorumFraction),
			"% infected",
		},
	}
	fig := Figure{
		ID:     "Extension: fault injection",
		Title:  "First alarm vs fleet outage fraction (one series per burst-loss level)",
		XLabel: "fleet fraction withdrawn",
		YLabel: "first alarm (seconds; horizon = never)",
	}
	for _, b := range cfg.BurstLosses {
		series := Series{Name: fmt.Sprintf("burst loss %g", b)}
		for _, o := range outcomes {
			//lint:ignore float-eq o.Burst was copied from this same cfg.BurstLosses entry, so == selects exactly its outcomes
			if o.Burst != b {
				continue
			}
			alarm := o.FirstAlarm
			if alarm < 0 {
				alarm = cfg.Fig5.MaxSeconds // never: plot at the horizon
			}
			series.X = append(series.X, o.Outage)
			series.Y = append(series.Y, alarm)
			firstCell := "never"
			if o.FirstAlarm >= 0 {
				firstCell = fmt.Sprintf("%.0f", o.FirstAlarm)
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%g", o.Burst),
				fmt.Sprintf("%.0f%%", 100*o.Outage),
				fmt.Sprintf("%d/%d", o.DownBlocks, o.NumUp),
				firstCell,
				fmt.Sprintf("%.1f", 100*o.Alerted),
				fmt.Sprintf("%.1f", 100*o.AlertedUp),
				fmt.Sprintf("%v/%v", o.QuorumNaive, o.QuorumDegraded),
				fmt.Sprintf("%.1f", 100*o.Infected),
			})
			pfx := fmt.Sprintf("ext-faults.burst%g.outage%g.", o.Burst, o.Outage)
			res.SetMetric(pfx+"first_alarm", o.FirstAlarm)
			res.SetMetric(pfx+"alerted", o.Alerted)
			res.SetMetric(pfx+"alerted_up", o.AlertedUp)
			res.SetMetric(pfx+"infected", o.Infected)
			res.SetMetric(pfx+"quorum_naive", boolMetric(o.QuorumNaive))
			res.SetMetric(pfx+"quorum_degraded", boolMetric(o.QuorumDegraded))
		}
		fig.Series = append(fig.Series, series)
	}
	res.Tables = append(res.Tables, table)
	res.Figures = append(res.Figures, fig)
	res.Notef("withdrawals nest across the sweep, so within a burst level the first alarm is monotone non-decreasing in the outage fraction")
	res.Notef("the degraded quorum (renormalized over in-service detectors) recovers what the naive quorum silently loses by counting dead sensors as 'not alerted'")
	return res, nil
}

// boolMetric renders a bool as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
