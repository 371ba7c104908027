package netenv

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

// TestSourceViewTransparent: a transparent environment delivers everything
// and consumes no randomness.
func TestSourceViewTransparent(t *testing.T) {
	env := &Environment{}
	v := env.CompileSource(ipv4.MustParseAddr("1.2.3.4"))
	r := rng.NewXoshiro(1)
	before := *r
	for i := 0; i < 100; i++ {
		if !v.Delivered(r) {
			t.Fatalf("transparent view dropped probe %d", i)
		}
	}
	if *r != before {
		t.Fatal("transparent view consumed randomness")
	}
}

// TestSourceViewFoldsEgress: the folded keep probability must equal the
// product of the per-factor survival probabilities, and hard egress
// blocks must drop everything.
func TestSourceViewFoldsEgress(t *testing.T) {
	env := &Environment{}
	if err := env.SetLossRate(0.5); err != nil {
		t.Fatal(err)
	}
	src := ipv4.MustParseAddr("10.20.30.40")
	env.AddEgressFilter(ipv4.MustParsePrefix("10.0.0.0/8"), 0.5)
	env.AddEgressFilter(ipv4.MustParsePrefix("10.20.0.0/16"), 0.5)
	env.AddEgressFilter(ipv4.MustParsePrefix("99.0.0.0/8"), 1.0) // does not match src
	v := env.CompileSource(src)
	want := 0.5 * 0.5 * 0.5
	if diff := v.keep - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("keep = %v, want %v", v.keep, want)
	}

	hard := &Environment{}
	hard.AddEgressFilter(ipv4.MustParsePrefix("10.0.0.0/8"), 1.0)
	hv := hard.CompileSource(src)
	r := rng.NewXoshiro(2)
	for i := 0; i < 50; i++ {
		if hv.Delivered(r) {
			t.Fatal("hard egress block delivered a probe")
		}
	}
}
