package hotspots_test

// Integration tests of the public facade: everything a downstream user
// touches, exercised end-to-end through the exported API only.

import (
	"testing"

	hotspots "repro"
)

func TestParseHelpers(t *testing.T) {
	a, err := hotspots.ParseAddr("192.168.0.100")
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsPrivate() {
		t.Error("192.168.0.100 not private")
	}
	if _, err := hotspots.ParseAddr("x"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestWormFactories(t *testing.T) {
	own, _ := hotspots.ParseAddr("18.31.0.5")
	for _, f := range []hotspots.WormFactory{hotspots.CodeRedII} {
		gen := f.New(own, 1)
		for i := 0; i < 10; i++ {
			_ = gen.Next()
		}
		if f.Name() == "" {
			t.Error("factory without name")
		}
	}
}

func TestCycleMaps(t *testing.T) {
	m := hotspots.SlammerCycleMap(0)
	if got := m.TotalCycles(); got != 64 {
		t.Errorf("Slammer cycles = %d, want 64", got)
	}
	proper, err := hotspots.NewCycleMap(214013, 2531011, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := proper.TotalCycles(); got != 1 {
		t.Errorf("intended-map cycles = %d, want 1", got)
	}
	if _, err := hotspots.NewCycleMap(3, 1, 32); err == nil {
		t.Error("invalid multiplier accepted")
	}
}

func TestEndToEndSimulationWithDetection(t *testing.T) {
	pop, err := hotspots.SynthesizePopulation(hotspots.PopulationConfig{
		Size:     5000,
		Slash8s:  10,
		Slash16s: 100,
		Anchors: []hotspots.CoverageAnchor{
			{K: 2, Share: 0.2}, {K: 20, Share: 0.6}, {K: 100, Share: 1},
		},
		Include192Slash8: true,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	list, cover := hotspots.BuildHitList(pop.Addrs(false), 20)
	if cover < 0.55 || cover > 0.65 {
		t.Errorf("hit-list coverage = %.3f, want ≈0.6", cover)
	}

	var slash16s []uint32
	for _, sc := range pop.Slash16Histogram() {
		slash16s = append(slash16s, sc.Network)
	}
	fleet, err := hotspots.NewDetectorFleet(hotspots.OnePerSlash16Placement(slash16s, 2), 5)
	if err != nil {
		t.Fatal(err)
	}

	res, err := hotspots.Simulate(hotspots.SimConfig{
		Pop:         pop,
		Model:       hotspots.HitListRateModel(list),
		ScanRate:    500,
		TickSeconds: 1,
		MaxSeconds:  800,
		SeedHosts:   10,
		Seed:        3,
		Sensors:     fleet,
		SensorSet:   fleet.Union(),
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := res.FractionInfected()
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("infected fraction = %.3f, want ≈ coverage 0.6", frac)
	}
	// The detection gap: most sensors silent despite a saturated epidemic.
	if fleet.AlertedFraction() > 0.45 {
		t.Errorf("alerted fraction = %.3f, want < coverage-bounded minority", fleet.AlertedFraction())
	}
}

func TestSensorFleetFacade(t *testing.T) {
	fleet, err := hotspots.NewSensorFleet(hotspots.IMSBlocks())
	if err != nil {
		t.Fatal(err)
	}
	src, _ := hotspots.ParseAddr("1.2.3.4")
	dst, _ := hotspots.ParseAddr("41.0.0.1")
	if !fleet.Observe(src, dst) {
		t.Error("Z-block probe not observed")
	}
	if fleet.Sensor("Z").TotalAttempts() != 1 {
		t.Error("attempt not counted")
	}
}

func TestWormFactoryHelpers(t *testing.T) {
	own, _ := hotspots.ParseAddr("18.31.0.5")
	set, cover := hotspots.BuildHitList([]hotspots.Addr{own, own + 1, own + 2}, 1)
	if cover != 1 || set.Size() != 1<<16 {
		t.Errorf("BuildHitList cover=%v size=%d", cover, set.Size())
	}
}

func TestRateModelHelpers(t *testing.T) {
	for _, m := range []hotspots.RateModel{
		hotspots.UniformRateModel(),
		hotspots.CodeRedIIRateModel(),
		hotspots.HitListRateModel(&hotspots.AddrSet{}),
	} {
		if m.Name() == "" {
			t.Errorf("%T has no name", m)
		}
	}
}

func TestRandomPlacementFacade(t *testing.T) {
	exclude := &hotspots.AddrSet{}
	prefixes, err := hotspots.RandomSlash24Placement(50, 1, exclude)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != 50 {
		t.Errorf("placed %d, want 50", len(prefixes))
	}
}
