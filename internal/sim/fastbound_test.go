package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// exactGroupLam recomputes group gi's λ from scratch: each pool's live
// count straight from the live index's rank over its spans, then the
// category rates in evalGroup's order and association.
func exactGroupLam(st *fastState, gi int, deliver float64) float64 {
	g := st.groupList[gi]
	p := float64(g.infected) * (st.cfg.ScanRate * st.cfg.TickSeconds)
	lam := 0.0
	for ai := g.off; ai < g.off+g.n; ai++ {
		comp := &st.comps[ai]
		var live int64
		for _, sp := range comp.data.spans {
			live += int64(st.live.rank(int(sp.Hi)) - st.live.rank(int(sp.Lo)))
		}
		if comp.weightOverSet > 0 && live > 0 {
			lam += p * comp.weightOverSet * float64(live) * deliver
		}
		if comp.pSensor > 0 {
			lam += p * comp.pSensor * deliver
		}
	}
	return lam
}

// TestFastStaleLambdaIsBound drives one fastState through seed infections,
// rate rebuilds and further infections, each of which kills a host in
// pools that groups other than its own draw from. After every rebuild each
// group's stored λ must be at least its exact λ recomputed from scratch,
// and the groups the rebuild evaluated — the dirty ones, or all of them
// after a delivery rise — must hold it bit for bit. A group whose stored λ
// fell below its exact λ would let drawGroup's gate settle a group-tick at
// k = 0 that the exact λ fires.
func TestFastStaleLambdaIsBound(t *testing.T) {
	pop := smallPop(t, 4000, 17)
	if err := pop.AssignNAT(0.3, 4, 9); err != nil {
		t.Fatal(err)
	}
	st := newFastState(FastConfig{
		Pop: pop, Model: NewCodeRedIIModel(),
		ScanRate: 10, TickSeconds: 1, MaxSeconds: 100, SeedHosts: 1, Seed: 1,
	})
	r := rng.NewXoshiro(5)
	infect := func(k int) {
		for ; k > 0; k-- {
			s := int32(r.Uint64n(uint64(pop.Size())))
			for !st.live.test(int(s)) {
				s = (s + 1) % int32(pop.Size())
			}
			st.infectSlot(s)
		}
	}
	var stale int
	check := func(round int, deliver float64, all bool) {
		t.Helper()
		dirty := make([]bool, len(st.groupList))
		for gi, g := range st.groupList {
			dirty[gi] = g.dirty
		}
		st.rebuildRates(deliver)
		for gi := range st.groupList {
			got, want := st.lam[gi], exactGroupLam(st, gi, deliver)
			if got < want {
				t.Fatalf("round %d group %d: stored λ %v below exact %v", round, gi, got, want)
			}
			if (all || dirty[gi]) && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d group %d: evaluated λ %v, exact %v", round, gi, got, want)
			}
			if got > want {
				stale++
			}
		}
	}
	infect(30)
	check(0, 0.5, true)
	for round := 1; round <= 40; round++ {
		infect(4)
		check(round, 0.5, false)
	}
	check(41, 0.9, true)
	for round := 42; round <= 60; round++ {
		infect(4)
		check(round, 0.9, false)
	}
	if stale == 0 {
		t.Fatal("no group ever held a stale bound; the test exercises nothing")
	}
	t.Logf("%d groups, %d stale bounds checked", len(st.groupList), stale)
}
