package netenv

import (
	"math"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/population"
	"repro/internal/rng"
)

func TestTransparentEnvironmentDeliversEverything(t *testing.T) {
	var env Environment
	r := rng.NewXoshiro(1)
	for i := 0; i < 1000; i++ {
		if !env.CompileSource(ipv4.Addr(i)).Delivered(r) {
			t.Fatal("transparent environment dropped a probe")
		}
	}
}

func TestEgressFilterDropRate(t *testing.T) {
	var env Environment
	corp := ipv4.MustParsePrefix("144.0.0.0/16")
	env.AddEgressFilter(corp, 0.9)
	r := rng.NewXoshiro(3)
	const n = 20000
	var delivered int
	for i := 0; i < n; i++ {
		if env.CompileSource(corp.Nth(uint64(i % 4096))).Delivered(r) {
			delivered++
		}
	}
	frac := float64(delivered) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("delivery rate through 0.9 egress filter = %.3f, want ≈0.1", frac)
	}
	// Sources outside the filter are untouched.
	for i := 0; i < 100; i++ {
		if !env.CompileSource(ipv4.MustParseAddr("9.9.9.9")).Delivered(r) {
			t.Fatal("unfiltered source dropped")
		}
	}
}

func TestLossRate(t *testing.T) {
	env := Environment{LossRate: 0.25}
	v := env.CompileSource(1)
	r := rng.NewXoshiro(4)
	const n = 40000
	var delivered int
	for i := 0; i < n; i++ {
		if v.Delivered(r) {
			delivered++
		}
	}
	frac := float64(delivered) / n
	if frac < 0.73 || frac > 0.77 {
		t.Errorf("delivery under 25%% loss = %.3f, want ≈0.75", frac)
	}
}

func TestCanReach(t *testing.T) {
	pub1 := population.Host{Addr: 100, Site: population.NoSite}
	pub2 := population.Host{Addr: 200, Site: population.NoSite}
	nat1a := population.Host{Addr: ipv4.MustParseAddr("192.168.0.5"), Site: 1}
	nat1b := population.Host{Addr: ipv4.MustParseAddr("192.168.0.9"), Site: 1}
	nat2 := population.Host{Addr: ipv4.MustParseAddr("192.168.0.5"), Site: 2}

	tests := []struct {
		name     string
		src, dst population.Host
		want     bool
	}{
		{name: "public-to-public", src: pub1, dst: pub2, want: true},
		{name: "nat-to-public", src: nat1a, dst: pub1, want: true},
		{name: "public-to-nat", src: pub1, dst: nat1a, want: false},
		{name: "same-site", src: nat1a, dst: nat1b, want: true},
		{name: "cross-site", src: nat2, dst: nat1a, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CanReach(tt.src, tt.dst); got != tt.want {
				t.Errorf("CanReach = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSynthesizeOrgs(t *testing.T) {
	cfg := DefaultOrgModel(1)
	orgs := SynthesizeOrgs(cfg)
	var ents, isps int
	all := &ipv4.Set{}
	var before uint64
	for _, o := range orgs {
		switch o.Kind {
		case Enterprise:
			ents++
			if o.EgressDrop < 0.9 {
				t.Errorf("%s: enterprise egress drop %.3f, want ≥0.9", o.Name, o.EgressDrop)
			}
		case BroadbandISP:
			isps++
			if o.EgressDrop != 0 {
				t.Errorf("%s: ISP egress drop %.3f, want 0", o.Name, o.EgressDrop)
			}
			if o.TotalAddrs() <= 1<<18 {
				t.Errorf("%s: ISP allocation %d too small", o.Name, o.TotalAddrs())
			}
		default:
			t.Errorf("unknown kind %v", o.Kind)
		}
		for _, p := range o.Prefixes {
			all.AddPrefix(p)
		}
		before += o.TotalAddrs()
	}
	if ents != cfg.Enterprises || isps != cfg.ISPs {
		t.Errorf("got %d enterprises / %d ISPs, want %d / %d", ents, isps, cfg.Enterprises, cfg.ISPs)
	}
	// No overlapping allocations: union size equals sum of sizes.
	if all.Size() != before {
		t.Errorf("allocations overlap: union %d != sum %d", all.Size(), before)
	}
}

func TestOrgKindString(t *testing.T) {
	if Enterprise.String() != "enterprise" || BroadbandISP.String() != "broadband-isp" {
		t.Error("kind names wrong")
	}
	if OrgKind(9).String() != "OrgKind(9)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestLossRateValidation(t *testing.T) {
	// Both boundaries are legal configurations.
	for _, ok := range []float64{0, 1, 0.5} {
		var env Environment
		if err := env.SetLossRate(ok); err != nil || env.LossRate != ok {
			t.Errorf("SetLossRate(%v) failed: %v (rate %v)", ok, err, env.LossRate)
		}
	}
	for _, bad := range []float64{math.NaN(), -0.001, 1.001, math.Inf(1), math.Inf(-1)} {
		var env Environment
		if err := env.SetLossRate(bad); err == nil {
			t.Errorf("SetLossRate(%v) accepted", bad)
		}
	}
	// Boundary semantics: 0 delivers everything, 1 delivers nothing.
	r := rng.NewXoshiro(1)
	lossless, total := Environment{LossRate: 0}, Environment{LossRate: 1}
	for i := 0; i < 1000; i++ {
		if !lossless.CompileSource(1).Delivered(r) {
			t.Fatal("loss rate 0 dropped a probe")
		}
		if total.CompileSource(1).Delivered(r) {
			t.Fatal("loss rate 1 delivered a probe")
		}
	}
}
