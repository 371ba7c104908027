package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/ipv4"
)

// Config is the JSON-serializable description of a fault plan. The zero
// value describes a fault-free world; every field composes independently.
// Config is the wire format (checkpoint files, CLI flags, fuzz corpus);
// Compile turns it into the Plan the simulation drivers query.
type Config struct {
	// Seed drives every random choice the plan makes (dwell times, report
	// duplication). It is independent of the simulation seed so one
	// outbreak can be replayed under many fault draws and vice versa.
	Seed uint64 `json:"seed"`
	// Outages withdraw sensor blocks from service.
	Outages []OutageConfig `json:"outages,omitempty"`
	// Burst replaces the environment's uniform loss with a two-state
	// Gilbert–Elliott channel.
	Burst *BurstConfig `json:"burst,omitempty"`
	// Reporting delays and duplicates sensor reports.
	Reporting *ReportingConfig `json:"reporting,omitempty"`
}

// OutageConfig withdraws one darknet block. Two shapes compose:
//
//   - Scheduled: the block is down for the window [Start, End) in
//     simulated seconds (a maintenance window, a dead sensor when End
//     covers the horizon).
//   - Flapping: the block alternates up and down with exponentially
//     distributed dwell times (a Markov on/off process) of means MeanUp
//     and MeanDown seconds.
//
// A block with both is down whenever either says so.
type OutageConfig struct {
	// Block is the withdrawn block in CIDR notation ("41.0.0.0/8").
	Block string `json:"block"`
	// Start and End bound the scheduled window; equal values (incl. the
	// zero value) mean no scheduled outage.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	// MeanUp and MeanDown are the flapping dwell means in seconds; both
	// zero means no flapping.
	MeanUp   float64 `json:"mean_up,omitempty"`
	MeanDown float64 `json:"mean_down,omitempty"`
}

// BurstConfig is a Gilbert–Elliott two-state loss channel: the network
// dwells in a good state losing LossGood of probes, then bursts into a bad
// state losing LossBad, with exponentially distributed dwell times. It
// models the congestion collapse and route instability the paper lists
// under "failures and misconfiguration" — loss that arrives in bursts, not
// as a uniform coin flip.
type BurstConfig struct {
	// MeanGood and MeanBad are the state dwell means in seconds.
	MeanGood float64 `json:"mean_good"`
	MeanBad  float64 `json:"mean_bad"`
	// LossGood and LossBad are the per-probe loss probabilities in each
	// state.
	LossGood float64 `json:"loss_good"`
	LossBad  float64 `json:"loss_bad"`
}

// MeanLoss returns the channel's stationary loss rate — the uniform
// LossRate this burst process averages out to.
func (b *BurstConfig) MeanLoss() float64 {
	total := b.MeanGood + b.MeanBad
	if total <= 0 {
		return 0
	}
	return (b.MeanGood*b.LossGood + b.MeanBad*b.LossBad) / total
}

// ReportingConfig delays and duplicates the reports sensors deliver to
// the detection layer (a congested collector, an at-least-once queue).
type ReportingConfig struct {
	// Delay is the seconds between a sensor observing a probe and the
	// detector receiving the report.
	Delay float64 `json:"delay"`
	// DupProb is the probability a report is delivered twice.
	DupProb float64 `json:"dup_prob"`
}

// validProb reports whether p is a probability (finite, in [0,1]).
func validProb(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 1
}

// validNonNeg reports whether v is finite and non-negative.
func validNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Validate checks the configuration without compiling it.
func (c *Config) Validate() error {
	for i, o := range c.Outages {
		if _, err := ipv4.ParsePrefix(o.Block); err != nil {
			return fmt.Errorf("faults: outage %d: %w", i, err)
		}
		if !validNonNeg(o.Start) || !validNonNeg(o.End) || o.End < o.Start {
			return fmt.Errorf("faults: outage %d: window [%v,%v) invalid", i, o.Start, o.End)
		}
		if !validNonNeg(o.MeanUp) || !validNonNeg(o.MeanDown) {
			return fmt.Errorf("faults: outage %d: dwell means must be finite and non-negative", i)
		}
		if (o.MeanUp > 0) != (o.MeanDown > 0) {
			return fmt.Errorf("faults: outage %d: flapping needs both mean_up and mean_down", i)
		}
		//lint:ignore float-eq a zero MeanUp is the unset flapping dwell and End == Start the empty window the Outage doc defines; a tolerance would accept tiny windows as empty
		if o.End == o.Start && o.MeanUp == 0 {
			return fmt.Errorf("faults: outage %d: neither a scheduled window nor flapping dwell times", i)
		}
	}
	if b := c.Burst; b != nil {
		if !validNonNeg(b.MeanGood) || !validNonNeg(b.MeanBad) || b.MeanGood <= 0 || b.MeanBad <= 0 {
			return errors.New("faults: burst dwell means must be positive and finite")
		}
		if !validProb(b.LossGood) || !validProb(b.LossBad) {
			return errors.New("faults: burst loss rates must be probabilities in [0,1]")
		}
	}
	if r := c.Reporting; r != nil {
		if !validNonNeg(r.Delay) {
			return errors.New("faults: reporting delay must be finite and non-negative")
		}
		if !validProb(r.DupProb) {
			return errors.New("faults: reporting dup_prob must be in [0,1]")
		}
	}
	return nil
}

// Empty reports whether the config describes no faults at all.
func (c *Config) Empty() bool {
	return len(c.Outages) == 0 && c.Burst == nil && c.Reporting == nil
}

// ParseConfig decodes and validates a JSON fault plan. Unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running the
// fault-free plan.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("faults: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	// Normalize `"outages": []` to nil: omitempty drops the empty slice on
	// marshal, so keeping it non-nil would break the re-parse round trip.
	if len(cfg.Outages) == 0 {
		cfg.Outages = nil
	}
	return cfg, nil
}
