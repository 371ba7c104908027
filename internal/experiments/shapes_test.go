package experiments

// Shape tests: each experiment must reproduce the qualitative result the
// paper reports — orderings, crossovers, orders of magnitude — at reduced
// scale. These are the reproduction's acceptance tests.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sensor"
	"repro/internal/worm"
)

func TestFig1ShapeTickSeedingCreatesHotspots(t *testing.T) {
	cfg := DefaultFig1(3)
	cfg.Hosts = 1500
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := Fig1SpikeRatio(res)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 5 {
		t.Errorf("tick-seeded Blaster spike ratio = %.1f, want ≥5 (hotspots)", ratio)
	}

	// Ablation: a well-seeded PRNG erases the hotspots.
	cfg.Ticks = worm.UniformTickModel{}
	ablation, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablRatio, err := Fig1SpikeRatio(ablation)
	if err != nil {
		t.Fatal(err)
	}
	if ablRatio*2 >= ratio {
		t.Errorf("ablation spike ratio %.1f not clearly below tick-seeded %.1f", ablRatio, ratio)
	}
}

func TestFig1SeedInversionFindsPlausibleTicks(t *testing.T) {
	cfg := DefaultFig1(4)
	cfg.Hosts = 1500
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "seed inversion") {
			found = true
		}
	}
	if !found {
		t.Error("no seed-inversion note produced")
	}
}

func TestFig2ShapeFilteredBlockSeesNothing(t *testing.T) {
	cfg := DefaultFig2(5)
	cfg.Hosts = 5000
	cfg.WindowProbes = 1 << 21
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Figures[0].Series {
		if s.Name != "M/22" {
			continue
		}
		for _, y := range s.Y {
			if y != 0 {
				t.Fatalf("upstream-filtered M block observed traffic (%v)", y)
			}
		}
	}
	// Unfiltered blocks all observe substantial traffic.
	for _, s := range res.Figures[0].Series {
		if s.Name == "M/22" {
			continue
		}
		var total float64
		for _, y := range s.Y {
			total += y
		}
		if total == 0 {
			t.Errorf("block %s observed nothing", s.Name)
		}
	}
}

func TestFig2ShapeClusteredSeedsCreateNonUniformity(t *testing.T) {
	cfg := DefaultFig2(6)
	cfg.Hosts = 20000
	cfg.WindowProbes = 1 << 22
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gini := res.Metrics["fig2.gini_unique"]

	// Ablation: with uniformly random seeds, the affine orbit structure
	// provably yields near-uniform expected counts.
	cfg.ClusteredSeedFraction = 0
	abl, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablGini := abl.Metrics["fig2.gini_unique"]
	if gini < 2*ablGini || gini < 0.02 {
		t.Errorf("clustered-seed Gini %.4f not clearly above uniform-seed %.4f", gini, ablGini)
	}
}

func TestFig3ShapeHostSkipsBlocks(t *testing.T) {
	cfg := DefaultFig3(7)
	cfg.WindowProbes = 1 << 20
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var censusNote, hostANote string
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "cycle census") {
			censusNote = n
		}
		if strings.HasPrefix(n, "host A") {
			hostANote = n
		}
	}
	if !strings.Contains(censusNote, "64 cycles") {
		t.Errorf("census note = %q, want 64 cycles", censusNote)
	}
	if hostANote == "" {
		t.Fatal("host A not found")
	}
	if !strings.Contains(hostANote, "misses [") || strings.Contains(hostANote, "misses []") {
		t.Errorf("host A misses no blocks: %q", hostANote)
	}
}

func TestFig4ShapeMBlockHotspot(t *testing.T) {
	cfg := DefaultFig4(8)
	cfg.Pop = quickPopulation(8)
	cfg.QuarantineOutside = 1000000
	cfg.QuarantineNAT = 1000000
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4a: M block mean must exceed other blocks by ≥3x.
	mMean, otherMean := fig4BlockMeans(t, res.Figures[0])
	if mMean < 3*otherMean {
		t.Errorf("fig4a M mean %.1f vs others %.1f: hotspot missing", mMean, otherMean)
	}
	// 4b vs 4c: only the NAT'd host floods the M block.
	mOutside := res.Metrics["Figure 4b.m_attempts"]
	mNAT := res.Metrics["Figure 4c.m_attempts"]
	if mNAT < 10 || mNAT < 10*(mOutside+1) {
		t.Errorf("quarantine M totals: outside=%v NAT=%v, want NAT ≫ outside", mOutside, mNAT)
	}
}

func fig4BlockMeans(t *testing.T, fig Figure) (mMean, otherMean float64) {
	t.Helper()
	var mSum, oSum float64
	var mN, oN int
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if s.Name == "M/22" {
				mSum += y
				mN++
			} else {
				oSum += y
				oN++
			}
		}
	}
	if mN == 0 || oN == 0 {
		t.Fatal("fig4a missing blocks")
	}
	return mSum / float64(mN), oSum / float64(oN)
}

func TestTable2ShapeEnterprisesInvisible(t *testing.T) {
	res, err := RunTable2(DefaultTable2(9))
	if err != nil {
		t.Fatal(err)
	}
	ent := res.Metrics["enterprise_visible"]
	isp := res.Metrics["isp_visible"]
	if isp < 20*(ent+1) {
		t.Errorf("ISP visibility %v not ≫ enterprise %v", isp, ent)
	}
}

func TestFig5aShapeSmallListsSaturateFaster(t *testing.T) {
	cfg := DefaultFig5(10)
	quickFig5(&cfg, 10)
	res, err := RunFig5a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	if len(fig.Series) != 4 {
		t.Fatalf("fig5a has %d series, want 4", len(fig.Series))
	}
	// The smallest list reaches 80% of its own coverage earlier than the
	// largest list reaches 80% of its coverage.
	tSmall := timeToReach(fig.Series[0], 0.8*12.0) // ≈80% of ~12% coverage
	tLarge := timeToReach(fig.Series[3], 0.8*100)
	if tSmall < 0 {
		t.Fatal("smallest list never saturated")
	}
	if tLarge >= 0 && tLarge < tSmall {
		t.Errorf("largest list saturated faster (%.0fs) than smallest (%.0fs)", tLarge, tSmall)
	}
	// Larger lists reach strictly more of the total population.
	finals := make([]float64, len(fig.Series))
	for i, s := range fig.Series {
		finals[i] = s.Y[len(s.Y)-1]
	}
	for i := 1; i < len(finals); i++ {
		if finals[i] < finals[i-1]-1 { // allow the unfinished tail ±1pp
			t.Errorf("final infected %%: %v not increasing with list size", finals)
		}
	}
}

func timeToReach(s Series, y float64) float64 {
	for i := range s.Y {
		if s.Y[i] >= y {
			return s.X[i]
		}
	}
	return -1
}

func TestFig5bShapeQuorumFails(t *testing.T) {
	cfg := DefaultFig5(11)
	quickFig5(&cfg, 11)
	res, err := RunFig5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: every hit-list except the full one leaves the
	// majority of sensors silent — quorum never reached.
	quorumFalse := 0
	for _, n := range res.Notes {
		if strings.Contains(n, "quorum(50%) reached: false") {
			quorumFalse++
		}
	}
	if quorumFalse < 3 {
		t.Errorf("only %d of the partial hit-lists failed quorum, want ≥3\nnotes: %v", quorumFalse, res.Notes)
	}
}

func TestFig5cShapePlacementOrdering(t *testing.T) {
	cfg := DefaultFig5(12)
	quickFig5(&cfg, 12)
	res, err := RunFig5c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At the 20%-infected mark: 192/8 sweep ≥ top-20 ≥ random.
	r := res.Metrics["fig5c.randomly placed.alerted_at_20pct"]
	t20 := res.Metrics["fig5c.placed top-20 /8s.alerted_at_20pct"]
	s := res.Metrics["fig5c.placed 192/8.alerted_at_20pct"]
	if !(s >= t20 && t20 >= r) {
		t.Errorf("placement ordering at 20%% infected: 192/8=%v top20=%v random=%v, want s ≥ t ≥ r", s, t20, r)
	}
	if s < 0.9 {
		t.Errorf("192/8 sweep alerted %.3f at 20%% infected, want ≈1", s)
	}
}

func TestFig5bQuorumFailureIsSeedRobust(t *testing.T) {
	// The headline result must not depend on the simulation seed: across
	// several seeds, every partial hit-list leaves the quorum unreached.
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := uint64(30); seed < 33; seed++ {
		cfg := DefaultFig5(seed)
		quickFig5(&cfg, seed)
		cfg.HitListSizes = []int{30, 200}
		res, err := RunFig5b(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range cfg.HitListSizes {
			if q := res.Metrics[fmt.Sprintf("fig5b.%d.quorum", k)]; q != 0 {
				t.Errorf("seed %d: %d-prefix list reached quorum", seed, k)
			}
		}
	}
}

func TestBlockIndexRejectsBadGeometry(t *testing.T) {
	blocks := sensor.DefaultIMSBlocks()
	if _, err := newBlockIndex(blocks); err != nil {
		t.Fatalf("default geometry rejected: %v", err)
	}
	dup := append([]sensor.Block{}, blocks...)
	dup = append(dup, sensor.Block{Label: "X", Prefix: blocks[0].Prefix})
	if _, err := newBlockIndex(dup); err == nil {
		t.Error("duplicate /8 accepted")
	}
}
