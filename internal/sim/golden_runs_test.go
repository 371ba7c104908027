package sim

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/population"
	"repro/internal/trace"
	"repro/internal/worm"
)

// These hashes pin how the fast driver resolves an infected slot to its
// mixture group. They were first captured before groups became slot runs,
// from the per-infection GroupKey/map driver, and re-pinned once when host
// order became canonical, so a run table that split or merged a group, or
// created groups in a different order, fails here.
//
//   - localpref-nat: LocalPrefModel keys NAT'd hosts by their private /24,
//     and with four hosts per site the same 192.168.x.0/24 recurs across
//     sites. Those runs are not contiguous but must share one group.
//   - hitlist-nat: HitListModel keys every host to 0, so every slot,
//     public hosts and NAT sites alike, is in one run.
//
// Each scenario runs at Workers 1 and 4, with tick skipping on and off,
// and all four variants must hash the same.
const (
	goldenRunsLocalPrefNAT = "eda6bb660ead39c2d094bc677be28850965ac3f1b0eae22a7d1fb5057c959dff"
	goldenRunsHitListNAT   = "d94ae70c5efbc457f305d174134e74234290c63eb7e8ce8eaf59b1a46757e937"
)

// runsPop is a NAT'd population whose small sites make private /24s
// recur across sites.
func runsPop(t *testing.T) *population.Population {
	t.Helper()
	pop := smallPop(t, 800, 31)
	if err := pop.AssignNAT(0.5, 4, 9); err != nil {
		t.Fatal(err)
	}
	return pop
}

func runsGoldenRun(t *testing.T, model RateModel, workers int, noskip bool) string {
	t.Helper()
	rec := trace.NewRecorder(0)
	res, err := RunFast(FastConfig{
		Pop:             runsPop(t),
		Model:           model,
		ScanRate:        400,
		TickSeconds:     1,
		MaxSeconds:      60,
		SeedHosts:       120,
		Seed:            515,
		Workers:         workers,
		DisableTickSkip: noskip,
		LossRate:        0.02,
		Trace:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenSerialize(t, res, nil, rec)
}

func TestFastGroupRunsGoldenByteIdentity(t *testing.T) {
	localPref := func(t *testing.T) RateModel {
		m, err := NewLocalPrefModel(worm.Preference{Same8: 0.3, Same16: 0.3, Same24: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	hitList := func(t *testing.T) RateModel {
		hist := runsPop(t).Slash16Histogram()
		var ps []ipv4.Prefix
		for _, sc := range hist[:6] {
			p, err := ipv4.NewPrefix(ipv4.Addr(sc.Network<<16), 16)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		return &HitListModel{List: ipv4.SetOfPrefixes(ps...)}
	}
	cases := []struct {
		name  string
		want  string
		model func(*testing.T) RateModel
	}{
		{"localpref-nat", goldenRunsLocalPrefNAT, localPref},
		{"hitlist-nat", goldenRunsHitListNAT, hitList},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for _, noskip := range []bool{false, true} {
					got := goldenHash(runsGoldenRun(t, tc.model(t), workers, noskip))
					t.Logf("%s workers=%d noskip=%v hash %s", tc.name, workers, noskip, got)
					if got != tc.want {
						t.Errorf("%s workers=%d noskip=%v: hash %s, pinned %s", tc.name, workers, noskip, got, tc.want)
					}
				}
			}
		})
	}
}

// TestFastGroupRuns checks the run table behind the group lookup: every
// slot of a run has the run's GroupKey, adjacent runs differ, and the
// block-indexed runOf agrees with a linear scan of runStart for every
// slot. The population spans several live-index blocks, and the three
// models cover many runs per block (/24 keys), a few (/16 and site keys)
// and one run for every slot.
func TestFastGroupRuns(t *testing.T) {
	pop := smallPop(t, 6000, 31)
	if err := pop.AssignNAT(0.3, 4, 9); err != nil {
		t.Fatal(err)
	}
	localPref, err := NewLocalPrefModel(worm.Preference{Same8: 0.3, Same16: 0.3, Same24: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model RateModel
		// split reports that some key owns non-adjacent runs.
		split, oneRun bool
	}{
		{"localpref", localPref, true, false},
		{"codered2", NewCodeRedIIModel(), false, false},
		{"hitlist", &HitListModel{List: fullSpace()}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newFastState(FastConfig{Pop: pop, Model: tc.model})
			n := int32(pop.Size())
			keyAt := func(s int32) uint64 { return tc.model.GroupKey(pop.Host(int(s))) }
			owner := make(map[uint64]int)
			split := false
			for r, lo := range st.runStart {
				hi := n
				if r+1 < len(st.runStart) {
					hi = st.runStart[r+1]
				}
				if lo >= hi {
					t.Fatalf("run %d is empty: [%d,%d)", r, lo, hi)
				}
				key := keyAt(lo)
				if r > 0 && keyAt(lo-1) == key {
					t.Fatalf("runs %d and %d share key %#x but were not merged", r-1, r, key)
				}
				if _, ok := owner[key]; ok {
					split = true
				}
				owner[key] = r
				for s := lo; s < hi; s++ {
					if k := keyAt(s); k != key {
						t.Fatalf("slot %d in run %d has key %#x, run key %#x", s, r, k, key)
					}
					if got := st.runOf(s); got != r {
						t.Fatalf("runOf(%d) = %d, linear scan %d", s, got, r)
					}
				}
			}
			if split != tc.split {
				t.Errorf("some key owns several runs: %v, want %v", split, tc.split)
			}
			if tc.oneRun && len(st.runStart) != 1 {
				t.Errorf("%d runs, want 1", len(st.runStart))
			}
			t.Logf("%d runs over %d slots in %d blocks", len(st.runStart), n, st.live.blocks)
		})
	}
}
