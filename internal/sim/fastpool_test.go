package sim

import (
	"math"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/worm"
)

// naivePoolSelect returns the j-th live slot of d's span union, walking
// the slots one by one.
func naivePoolSelect(st *fastState, d *compData, j int64) int {
	for _, sp := range d.spans {
		for s := int(sp.Lo); s < int(sp.Hi); s++ {
			if st.live.test(s) {
				if j == 0 {
					return s
				}
				j--
			}
		}
	}
	return -1
}

// checkPoolGeometry compares every pool's live counts with a from-scratch
// rank over its spans, and selectVictim with a naive select
// for sampled in-pool indexes: the first, the last, the first of each span
// and random ones.
func checkPoolGeometry(t *testing.T, st *fastState, r *rng.Xoshiro, round int) {
	t.Helper()
	for pi, d := range st.compList {
		var c int64
		for i, sp := range d.spans {
			c += int64(st.live.rank(int(sp.Hi)) - st.live.rank(int(sp.Lo)))
			if d.cumLive[i] != c {
				t.Fatalf("round %d pool %d span %d [%d,%d): cumulative live %d, want %d",
					round, pi, i, sp.Lo, sp.Hi, d.cumLive[i], c)
			}
		}
		if d.liveCt != c {
			t.Fatalf("round %d pool %d: live count %d, want %d", round, pi, d.liveCt, c)
		}
		if c == 0 {
			continue
		}
		js := []int64{0, c - 1}
		for i := range d.cumLive[:len(d.cumLive)-1] {
			if d.cumLive[i] < c {
				js = append(js, d.cumLive[i])
			}
		}
		for k := 0; k < 8; k++ {
			js = append(js, int64(r.Uint64n(uint64(c))))
		}
		rank0 := int64(st.live.rank(int(d.spans[0].Lo)))
		for _, j := range js {
			if got, want := st.selectVictim(d, j, rank0), naivePoolSelect(st, d, j); got != want {
				t.Fatalf("round %d pool %d: selectVictim(%d) = %d, want %d", round, pi, j, got, want)
			}
		}
	}
	// Groups evaluated at this rebuild hold their components' first-span
	// start ranks, which their draws pass to selectVictim.
	for _, g := range st.groupList {
		if g.stamp != st.rateStamp {
			continue
		}
		for ai := g.off; ai < g.off+g.n; ai++ {
			d := st.comps[ai].data
			if st.catRate[ai] > 0 && st.catRank[ai] != int64(st.live.rank(int(d.spans[0].Lo))) {
				t.Fatalf("round %d comp %d: cached start rank %d, want %d",
					round, ai, st.catRank[ai], st.live.rank(int(d.spans[0].Lo)))
			}
		}
	}
}

// checkRunningSums pins rebuildRates' totals bit for bit: probesTotal is
// the in-order sum of infected·perHost, and lamTotal the in-order sum of
// the stored λ, which cutShards divides.
func checkRunningSums(t *testing.T, st *fastState, round int) {
	t.Helper()
	perHost := st.cfg.ScanRate * st.cfg.TickSeconds
	var probes, lam float64
	for gi, g := range st.groupList {
		probes += float64(g.infected) * perHost
		lam += st.lam[gi]
	}
	if math.Float64bits(st.probesTotal) != math.Float64bits(probes) {
		t.Fatalf("round %d: probesTotal %v, in-order sum %v", round, st.probesTotal, probes)
	}
	if math.Float64bits(st.lamTotal) != math.Float64bits(lam) {
		t.Fatalf("round %d: lamTotal %v, in-order sum of the stored λ %v", round, st.lamTotal, lam)
	}
}

// TestFastPoolGeometryAfterRebuilds drives a fastState through infections
// and rate rebuilds on worlds whose pools have several spans — NAT sites,
// a hit list of disjoint intervals, hard-blocked destination space — and
// after every rebuild checks each pool's live counts against the live
// index and each draw's victim against a naive select. Kills are
// aimed at span edges and just below them as well as at random slots, some rebuilds have no kills, and
// groups first infected mid-run bring new pools, which must be counted
// from scratch while older pools take only the kills that reach them
// through the run → pool index.
func TestFastPoolGeometryAfterRebuilds(t *testing.T) {
	natPop := smallPop(t, 3000, 21)
	if err := natPop.AssignNAT(0.3, 6, 4); err != nil {
		t.Fatal(err)
	}
	plainPop := smallPop(t, 3000, 22)
	addr := func(p *population.Population, s int) ipv4.Addr { return p.Host(s).Addr }
	hitList := ipv4.NewSet(
		ipv4.Interval{Lo: addr(plainPop, 100), Hi: addr(plainPop, 400)},
		ipv4.Interval{Lo: addr(plainPop, 900), Hi: addr(plainPop, 905)},
		ipv4.Interval{Lo: addr(plainPop, 1500), Hi: addr(plainPop, 2200)},
		ipv4.Interval{Lo: addr(plainPop, 2990), Hi: ipv4.MaxAddr},
	)
	blocked := ipv4.NewSet(
		ipv4.Interval{Lo: addr(natPop, 200), Hi: addr(natPop, 260)},
		ipv4.Interval{Lo: addr(natPop, 1200), Hi: addr(natPop, 1203)},
		ipv4.Interval{Lo: addr(natPop, 1900), Hi: addr(natPop, 2100)},
	)
	// Each case must exercise what it is here for: pools with three or
	// more spans, pools created after the first rebuild, or both.
	cases := []struct {
		name          string
		cfg           FastConfig
		multi, midRun bool
	}{
		{"codered2-nat-blocked", FastConfig{Pop: natPop, Model: NewCodeRedIIModel(), BlockedDst: blocked}, true, true},
		{"hitlist", FastConfig{Pop: plainPop, Model: &HitListModel{List: hitList}}, true, false},
		{"localpref", FastConfig{Pop: plainPop, Model: mustLocalPref(t)}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ScanRate, cfg.TickSeconds, cfg.MaxSeconds, cfg.SeedHosts, cfg.Seed = 10, 1, 100, 1, 1
			st := newFastState(cfg)
			n := cfg.Pop.Size()
			r := rng.NewXoshiro(7)
			kill := func(s int) {
				for tries := 0; tries < n; tries++ {
					if st.live.test(s) {
						st.infectSlot(int32(s))
						return
					}
					s = (s + 1) % n
				}
			}
			infect := func(k int) {
				for ; k > 0; k-- {
					if k%3 == 0 && len(st.compList) > 0 {
						// A span edge of a random pool: its first or last
						// slot, or both sides of its start, which often
						// straddle two group runs.
						d := st.compList[r.Uint64n(uint64(len(st.compList)))]
						if len(d.spans) > 0 {
							sp := d.spans[r.Uint64n(uint64(len(d.spans)))]
							switch r.Uint64n(3) {
							case 0:
								kill(int(sp.Lo))
							case 1:
								kill(int(sp.Hi) - 1)
							default:
								kill(max(int(sp.Lo)-1, 0))
								kill(int(sp.Lo))
							}
							continue
						}
					}
					kill(int(r.Uint64n(uint64(n))))
				}
			}
			deliver := 0.5
			rebuild := func(round int) {
				st.rebuildRates(deliver)
				checkPoolGeometry(t, st, r, round)
				checkRunningSums(t, st, round)
			}
			infect(5)
			rebuild(0)
			firstPools := len(st.compList)
			for round := 1; round <= 60; round++ {
				switch {
				case round%10 == 0:
					// No kills: a delivery change alone forces the rebuild.
					deliver += 0.005
				case round%10 == 5:
					// No kills and no delivery change.
				default:
					infect(1 + round%7)
				}
				rebuild(round)
			}
			if tc.midRun && len(st.compList) == firstPools {
				t.Fatal("no pool was created after the first rebuild; the test exercises nothing")
			}
			multi := 0
			for _, d := range st.compList {
				if len(d.spans) >= 3 {
					multi++
				}
			}
			if tc.multi && multi == 0 {
				t.Fatal("no pool has three or more spans; the test exercises nothing")
			}
			t.Logf("%d pools (%d from the first rebuild, %d with ≥ 3 spans), %d infected",
				len(st.compList), firstPools, multi, n-st.live.rank(n))
		})
	}
}

func mustLocalPref(t *testing.T) *LocalPrefModel {
	t.Helper()
	m, err := NewLocalPrefModel(worm.Preference{Same8: 0.3, Same16: 0.3, Same24: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
