package experiments

import (
	"fmt"
	"testing"
)

func TestExtThresholdShapeCappedByCoverage(t *testing.T) {
	cfg := DefaultExtThreshold(21)
	quickFig5(&cfg.Fig5, 21)
	cfg.HitListSize = 200
	res, err := RunExtThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != len(cfg.Thresholds) {
		t.Fatalf("table shape wrong: %+v", res.Tables)
	}
	// Alerted fraction is monotone non-increasing in the threshold and
	// never reaches quorum: even threshold 1 is capped by the hit-list's
	// sensor coverage.
	prev := 1.0
	for _, th := range cfg.Thresholds {
		a := res.Metrics[fmt.Sprintf("ext-threshold.%d.alerted", th)]
		if a > prev+1e-9 {
			t.Errorf("alerted fraction increased with threshold %d: %v > %v", th, a, prev)
		}
		if a >= 0.5 {
			t.Errorf("threshold %d reached quorum (%.3f) despite the hit-list cap", th, a)
		}
		prev = a
	}
}

func TestExtNATSweepShapeMonotoneValue(t *testing.T) {
	cfg := DefaultExtNATSweep(22)
	quickFig5(&cfg.Fig5, 22)
	cfg.Fig5.RandomSensors = 1000
	// Fractions where the 25 random seeds are near-certain to include a
	// NAT'd host: at lower fractions the private network may simply never
	// get seeded (a real bootstrap effect — at this test's seed the 15%
	// row draws zero NAT'd seeds, a 1.7% event the note calls out).
	cfg.NATFractions = []float64{0.30, 0.45}
	res, err := RunExtNATSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The 192/8 sweep's full fleet must end up alerted at every NAT level,
	// and its first alert must come no later than the random fleet's (its
	// sensors sit directly in the leak).
	for _, nat := range cfg.NATFractions {
		sFinal := res.Metrics[fmt.Sprintf("ext-natsweep.%.2f.sweep_final", nat)]
		sFirst := res.Metrics[fmt.Sprintf("ext-natsweep.%.2f.sweep_first", nat)]
		rFirst := res.Metrics[fmt.Sprintf("ext-natsweep.%.2f.random_first", nat)]
		if sFinal < 0.9 {
			t.Errorf("NAT %.0f%%: sweep final alerted %.3f, want ≈1", 100*nat, sFinal)
		}
		if sFirst < 0 {
			t.Errorf("NAT %.0f%%: sweep never alerted", 100*nat)
			continue
		}
		if rFirst >= 0 && sFirst > rFirst+60 {
			t.Errorf("NAT %.0f%%: sweep first alert %.0fs far behind random %.0fs", 100*nat, sFirst, rFirst)
		}
	}
}

func TestExtPrevalenceShapeInsideOnly(t *testing.T) {
	cfg := DefaultExtPrevalence(23)
	cfg.PopSize = 1000
	cfg.MaxSeconds = 150
	res, err := RunExtPrevalence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inside := res.Metrics["ext-prevalence.inside_alarms"]
	outside := res.Metrics["ext-prevalence.outside_alarms"]
	if inside == 0 {
		t.Error("in-hotspot prevalence sensor never extracted a signature")
	}
	if outside != 0 {
		t.Errorf("outside sensor alarmed %v times on unseen content", outside)
	}
}

func TestExtContainmentShapeEarlierDetectionSavesHosts(t *testing.T) {
	cfg := DefaultExtContainment(24)
	quickFig5(&cfg.Fig5, 24)
	cfg.Fig5.RandomSensors = 1000
	res, err := RunExtContainment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	none := res.Metrics["ext-containment.no response.infected"]
	sweep192 := res.Metrics["ext-containment.placed 192/8.infected"]
	random := res.Metrics["ext-containment.randomly placed.infected"]
	if none < 0.5 {
		t.Fatalf("uncontained outbreak only reached %.3f", none)
	}
	// Any containment beats none, and the topology-aware fleet (earliest
	// detection, per Fig 5c) must save at least as many hosts as the
	// random fleet.
	if sweep192 >= none || random >= none {
		t.Errorf("containment did not reduce infections: none=%.3f 192/8=%.3f random=%.3f",
			none, sweep192, random)
	}
	if sweep192 > random+0.02 {
		t.Errorf("192/8-triggered containment (%.3f infected) worse than random-triggered (%.3f)",
			sweep192, random)
	}
	if at := res.Metrics["ext-containment.placed 192/8.engaged_at"]; at < 0 {
		t.Error("192/8 fleet never engaged containment")
	}
}

func TestExtWittyShapeTenPercentCold(t *testing.T) {
	res, err := RunExtWitty(DefaultExtWitty(1))
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Metrics["ext-witty.unreachable_fraction"]
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("unreachable fraction = %.4f, want ≈0.10", frac)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 11 {
		t.Fatalf("table shape wrong: %+v", res.Tables)
	}
}

func TestExtIMSShapeActiveResponseMatters(t *testing.T) {
	cfg := DefaultExtIMS(25)
	cfg.Probes = 600000
	res, err := RunExtIMS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// UDP (Slammer): payloads and signatures in both modes.
	if res.Metrics["ext-ims.slammer.passive.payloads"] == 0 ||
		res.Metrics["ext-ims.slammer.active-synack.payloads"] == 0 {
		t.Error("Slammer payloads missing in some mode")
	}
	// TCP (CodeRedII): payloads only with active response; signatures
	// follow payloads.
	if got := res.Metrics["ext-ims.codered2.passive.payloads"]; got != 0 {
		t.Errorf("passive telescope obtained %v TCP payloads", got)
	}
	if res.Metrics["ext-ims.codered2.active-synack.payloads"] == 0 {
		t.Error("active responder obtained no TCP payloads")
	}
	if got := res.Metrics["ext-ims.codered2.passive.signatures"]; got != 0 {
		t.Errorf("passive telescope extracted %v TCP signatures", got)
	}
	if res.Metrics["ext-ims.codered2.active-synack.signatures"] == 0 {
		t.Error("active responder extracted no CRII signature")
	}
}

func TestExtValidation(t *testing.T) {
	if _, err := RunExtThreshold(ExtThresholdConfig{}); err == nil {
		t.Error("empty threshold sweep accepted")
	}
	if _, err := RunExtNATSweep(ExtNATSweepConfig{}); err == nil {
		t.Error("empty NAT sweep accepted")
	}
	if _, err := RunExtPrevalence(ExtPrevalenceConfig{}); err == nil {
		t.Error("empty prevalence config accepted")
	}
	if _, err := RunExtContainment(ExtContainmentConfig{}); err == nil {
		t.Error("empty containment config accepted")
	}
	if _, err := RunExtContainment(ExtContainmentConfig{TriggerFraction: 0.1, Drop: 2}); err == nil {
		t.Error("invalid containment drop accepted")
	}
}
