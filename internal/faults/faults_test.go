package faults

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/netenv"
)

func TestCompileRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad block", Config{Outages: []OutageConfig{{Block: "not-a-cidr", Start: 0, End: 10}}}},
		{"inverted window", Config{Outages: []OutageConfig{{Block: "41.0.0.0/8", Start: 10, End: 5}}}},
		{"half flap", Config{Outages: []OutageConfig{{Block: "41.0.0.0/8", MeanUp: 10}}}},
		{"no shape", Config{Outages: []OutageConfig{{Block: "41.0.0.0/8"}}}},
		{"overlapping blocks", Config{Outages: []OutageConfig{
			{Block: "41.0.0.0/8", Start: 0, End: 10},
			{Block: "41.5.0.0/16", Start: 0, End: 10},
		}}},
		{"burst zero dwell", Config{Burst: &BurstConfig{MeanGood: 0, MeanBad: 1, LossBad: 0.5}}},
		{"burst loss out of range", Config{Burst: &BurstConfig{MeanGood: 1, MeanBad: 1, LossBad: 1.5}}},
		{"misconfig mode", Config{Misconfig: &MisconfigConfig{Fraction: 0.5, Mode: "scramble"}}},
		{"misconfig fraction", Config{Misconfig: &MisconfigConfig{Fraction: -0.1, Mode: MisconfigGap}}},
		{"reporting dup", Config{Reporting: &ReportingConfig{Delay: 1, DupProb: 2}}},
		{"negative delay", Config{Reporting: &ReportingConfig{Delay: -1}}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.cfg, 100); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
	if _, err := Compile(Config{}, 0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestNilPlanIsFaultFree(t *testing.T) {
	var p *Plan
	if p.SensorDown(ipv4.MustParseAddr("41.0.0.1"), 50) {
		t.Error("nil plan reported a sensor down")
	}
	if p.BurstLoss(50) != 0 || p.BurstBad(50) {
		t.Error("nil plan reported burst loss")
	}
	if p.DownBlocks(50) != 0 || p.DownSpace().Size() != 0 {
		t.Error("nil plan reported down blocks")
	}
	if p.NewReporter(func(_, _ ipv4.Addr) {}) != nil {
		t.Error("nil plan built a reporter")
	}
	orgs := netenv.SynthesizeOrgs(netenv.DefaultOrgModel(1))
	out, names := p.Misconfigure(orgs)
	if len(names) != 0 {
		t.Error("nil plan misconfigured orgs")
	}
	for i := range orgs {
		if out[i].EgressDrop != orgs[i].EgressDrop {
			t.Error("nil plan changed an egress policy")
		}
	}
}

func TestScheduledOutageWindow(t *testing.T) {
	p := MustCompile(Config{Outages: []OutageConfig{
		{Block: "41.0.0.0/8", Start: 100, End: 200},
	}}, 1000)
	in := ipv4.MustParseAddr("41.7.7.7")
	out := ipv4.MustParseAddr("42.7.7.7")
	for _, tc := range []struct {
		t    float64
		want bool
	}{{0, false}, {99.9, false}, {100, true}, {199.9, true}, {200, false}, {999, false}} {
		if got := p.SensorDown(in, tc.t); got != tc.want {
			t.Errorf("SensorDown(in-block, %v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if p.SensorDown(out, 150) {
		t.Error("outage leaked outside its block")
	}
	if p.DownBlocks(150) != 1 || p.DownBlocks(50) != 0 {
		t.Error("DownBlocks miscounted")
	}
	if !p.DownSpace().Contains(in) || p.DownSpace().Contains(out) {
		t.Error("DownSpace wrong")
	}
}

func TestFlappingOutageIsDeterministicAndPlausible(t *testing.T) {
	cfg := Config{Seed: 7, Outages: []OutageConfig{
		{Block: "41.0.0.0/8", MeanUp: 50, MeanDown: 50},
	}}
	a := MustCompile(cfg, 10000)
	b := MustCompile(cfg, 10000)
	addr := ipv4.MustParseAddr("41.1.2.3")
	downSeconds := 0
	for tick := 0; tick < 10000; tick++ {
		t1 := float64(tick)
		if a.SensorDown(addr, t1) != b.SensorDown(addr, t1) {
			t.Fatalf("two compilations disagree at t=%v", t1)
		}
		if a.SensorDown(addr, t1) {
			downSeconds++
		}
	}
	// Equal dwell means put the stationary down fraction at 1/2; a run of
	// 10000s should land in a broad band around it.
	if downSeconds < 2500 || downSeconds > 7500 {
		t.Errorf("down fraction %.2f implausible for equal dwell means", float64(downSeconds)/10000)
	}
	// A different plan seed flips a different timeline.
	cfg2 := cfg
	cfg2.Seed = 8
	c := MustCompile(cfg2, 10000)
	same := 0
	for tick := 0; tick < 10000; tick++ {
		if a.SensorDown(addr, float64(tick)) == c.SensorDown(addr, float64(tick)) {
			same++
		}
	}
	if same == 10000 {
		t.Error("changing the plan seed did not change the flap timeline")
	}
}

func TestBurstChannelStates(t *testing.T) {
	cfg := Config{Seed: 3, Burst: &BurstConfig{
		MeanGood: 100, MeanBad: 25, LossGood: 0.01, LossBad: 0.8,
	}}
	p := MustCompile(cfg, 20000)
	good, bad := 0, 0
	for tick := 0; tick < 20000; tick++ {
		switch p.BurstLoss(float64(tick)) {
		case cfg.Burst.LossGood:
			good++
		case cfg.Burst.LossBad:
			bad++
			if !p.BurstBad(float64(tick)) {
				t.Fatal("LossBad while BurstBad is false")
			}
		default:
			t.Fatal("burst loss outside the two states")
		}
	}
	if bad == 0 || good == 0 {
		t.Fatalf("channel never visited both states (good=%d bad=%d)", good, bad)
	}
	// Stationary bad fraction is 25/125 = 20%; accept a broad band.
	frac := float64(bad) / 20000
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("bad-state fraction %.2f implausible for 100/25 dwell means", frac)
	}
	if got, want := cfg.Burst.MeanLoss(), (100*0.01+25*0.8)/125; got != want {
		t.Errorf("MeanLoss = %v, want %v", got, want)
	}
}

func TestMisconfigureNestedSelection(t *testing.T) {
	orgs := netenv.SynthesizeOrgs(netenv.DefaultOrgModel(1))
	mk := func(frac float64, mode string) ([]netenv.Org, []string) {
		p := MustCompile(Config{Seed: 11, Misconfig: &MisconfigConfig{Fraction: frac, Mode: mode}}, 10)
		return p.Misconfigure(orgs)
	}
	smallOut, small := mk(0.25, MisconfigGap)
	_, large := mk(0.75, MisconfigGap)
	if len(small) == 0 || len(large) <= len(small) {
		t.Fatalf("selection sizes: %d then %d", len(small), len(large))
	}
	// Growing the fraction must corrupt a superset: the selection order is
	// pinned by the plan seed, not the fraction.
	for i, name := range small {
		if large[i] != name {
			t.Fatalf("selection order changed with fraction: %v vs %v", small, large)
		}
	}
	byName := make(map[string]netenv.Org)
	for _, o := range smallOut {
		byName[o.Name] = o
	}
	for _, name := range small {
		if byName[name].EgressDrop != 0 {
			t.Errorf("gap mode left %s with drop %v", name, byName[name].EgressDrop)
		}
	}
	invOut, invNames := mk(0.25, MisconfigInvert)
	orig := make(map[string]float64)
	for _, o := range orgs {
		orig[o.Name] = o.EgressDrop
	}
	for _, o := range invOut {
		inverted := false
		for _, n := range invNames {
			if n == o.Name {
				inverted = true
			}
		}
		want := orig[o.Name]
		if inverted {
			want = 1 - want
		}
		if o.EgressDrop != want {
			t.Errorf("%s: drop %v, want %v (inverted=%v)", o.Name, o.EgressDrop, want, inverted)
		}
	}
}

func TestReporterDelayDuplicationAndFlush(t *testing.T) {
	p := MustCompile(Config{Seed: 5, Reporting: &ReportingConfig{Delay: 10, DupProb: 0}}, 100)
	var got []ipv4.Addr
	rep := p.NewReporter(func(_, dst ipv4.Addr) { got = append(got, dst) })
	rep.Advance(0)
	rep.Report(1, 100)
	rep.Report(2, 200)
	if len(got) != 0 {
		t.Fatal("reports delivered before their delay")
	}
	rep.Advance(9.9)
	if len(got) != 0 {
		t.Fatal("reports delivered early")
	}
	rep.Advance(10)
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Fatalf("delivery order wrong: %v", got)
	}
	rep.Advance(50)
	rep.Report(3, 300)
	if rep.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", rep.Pending())
	}
	rep.Flush()
	if rep.Pending() != 0 || len(got) != 3 {
		t.Fatalf("flush left pending=%d delivered=%d", rep.Pending(), len(got))
	}

	// Always-duplicate: every observation arrives twice.
	pd := MustCompile(Config{Seed: 5, Reporting: &ReportingConfig{Delay: 0, DupProb: 1}}, 100)
	var n int
	rd := pd.NewReporter(func(_, _ ipv4.Addr) { n++ })
	rd.Advance(1)
	rd.RecordHit(42)
	rd.RecordHit(43)
	if n != 4 || rd.Duplicated() != 2 || rd.Observed() != 2 {
		t.Fatalf("dup accounting: delivered=%d dupes=%d observed=%d", n, rd.Duplicated(), rd.Observed())
	}
}

// TestReporterReusesQueue checks that a reporter in steady state allocates
// nothing: delivered reports give their room back to the queue, with and
// without a delay. Re-slicing past them cost one allocation per report
// with no delay.
func TestReporterReusesQueue(t *testing.T) {
	for _, delay := range []float64{0, 2.5} {
		p := MustCompile(Config{Seed: 5, Reporting: &ReportingConfig{Delay: delay, DupProb: 0.5}}, 1000)
		var n int
		rep := p.NewReporter(func(_, _ ipv4.Addr) { n++ })
		now := 0.0
		tick := func() {
			now++
			rep.Advance(now)
			for i := range 50 {
				rep.Report(1, ipv4.Addr(i))
			}
		}
		for range 10 {
			tick()
		}
		if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
			t.Errorf("delay %v: %v allocations per 50-report tick, want 0", delay, allocs)
		}
		if n == 0 {
			t.Errorf("delay %v: nothing delivered", delay)
		}
	}
}

// TestWithdrawalOrderIsShuffled checks that the outage order is a
// permutation whose prefixes are not the fleet's first blocks. Floyd's
// sample of n from n comes back as 0, 1, …, n−1, which would withdraw the
// blocks in listing order.
func TestWithdrawalOrderIsShuffled(t *testing.T) {
	for _, n := range []int{12, 100, 4481} {
		for _, seed := range []uint64{1, 2, 3} {
			order := WithdrawalOrder(seed, n)
			seen := make([]bool, n)
			for _, v := range order {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("n=%d seed=%d: not a permutation: %v", n, seed, order)
				}
				seen[v] = true
			}
			k := n / 5
			sorted := true
			for i, v := range order[:k] {
				sorted = sorted && v == i
			}
			if sorted {
				t.Errorf("n=%d seed=%d: the first fifth withdraws blocks 0..%d in order", n, seed, k-1)
			}
		}
	}
}

// TestMisconfigureIsShuffled checks that a misconfiguration fraction
// corrupts a random subset of the orgs, not the first ones listed.
func TestMisconfigureIsShuffled(t *testing.T) {
	orgs := netenv.SynthesizeOrgs(netenv.DefaultOrgModel(1))
	p := MustCompile(Config{Seed: 11, Misconfig: &MisconfigConfig{Fraction: 0.2, Mode: MisconfigGap}}, 10)
	_, names := p.Misconfigure(orgs)
	if len(names) == 0 {
		t.Fatal("nothing corrupted")
	}
	first := true
	for i, name := range names {
		first = first && name == orgs[i].Name
	}
	if first {
		t.Fatalf("a 20 %% misconfiguration corrupts the first %d of %d orgs in order", len(names), len(orgs))
	}
}
