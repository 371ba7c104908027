package worm

import (
	"testing"

	"repro/internal/ipv4"
)

func TestCodeRedIIExclusions(t *testing.T) {
	own := ipv4.MustParseAddr("18.31.0.5")
	c := NewCodeRedII(own, 99)
	for i := 0; i < 50000; i++ {
		a := c.Next()
		if a.IsLoopback() {
			t.Fatalf("probe %d targeted loopback %v", i, a)
		}
		if a.IsReserved() {
			t.Fatalf("probe %d targeted reserved %v", i, a)
		}
		if a == own {
			t.Fatalf("probe %d targeted own address", i)
		}
	}
}

func TestCodeRedIILocalPreferenceSplit(t *testing.T) {
	own := ipv4.MustParseAddr("18.31.0.5")
	c := NewCodeRedII(own, 7)
	const n = 100000
	var same16, same8only, elsewhere int
	for i := 0; i < n; i++ {
		a := c.Next()
		switch {
		case a.SameSlash16(own):
			same16++
		case a.Slash8() == own.Slash8():
			same8only++
		default:
			elsewhere++
		}
	}
	// same /16 ≈ 3/8 (+ negligible mass from the /8 and random branches);
	// same /8 but different /16 ≈ 4/8 · 255/256; elsewhere ≈ 1/8 · ~1.
	assertFraction(t, "same /16", same16, n, 0.375, 0.02)
	assertFraction(t, "same /8 only", same8only, n, 0.498, 0.02)
	assertFraction(t, "elsewhere", elsewhere, n, 0.124, 0.02)
}

func assertFraction(t *testing.T, name string, count, total int, want, tol float64) {
	t.Helper()
	got := float64(count) / float64(total)
	if got < want-tol || got > want+tol {
		t.Errorf("%s fraction = %.4f, want %.3f±%.3f", name, got, want, tol)
	}
}

func TestCodeRedIINATLeak(t *testing.T) {
	// The Figure 4 mechanism: a host NAT'd at 192.168.0.100 sends ≈1/2 of
	// its probes into public 192/8 space (the "same /8" branch escapes the
	// private /16), while a host outside 192/8 almost never hits 192/8.
	natted := NewCodeRedII(ipv4.MustParseAddr("192.168.0.100"), 3)
	const n = 200000
	var leaked, private int
	for i := 0; i < n; i++ {
		a := natted.Next()
		if a.Slash8() == 192 {
			if a.Slash16() == ipv4.MustParseAddr("192.168.0.0").Slash16() {
				private++
			} else {
				leaked++
			}
		}
	}
	assertFraction(t, "leak into public 192/8", leaked, n, 0.498, 0.02)
	assertFraction(t, "stay in 192.168/16", private, n, 0.377, 0.02)

	outside := NewCodeRedII(ipv4.MustParseAddr("18.31.0.5"), 3)
	var hit192 int
	for i := 0; i < n; i++ {
		if outside.Next().Slash8() == 192 {
			hit192++
		}
	}
	// Only the 1/8 random branch can reach 192/8: 1/8 · 1/256 ≈ 0.0005.
	if frac := float64(hit192) / n; frac > 0.002 {
		t.Errorf("outside host hit 192/8 at rate %.5f, want ≈0.0005", frac)
	}
}

func TestCodeRedIIUniformHasNoLocalPreference(t *testing.T) {
	own := ipv4.MustParseAddr("18.31.0.5")
	c := NewCodeRedIIUniform(own, 5)
	const n = 100000
	var same8 int
	for i := 0; i < n; i++ {
		a := c.Next()
		if a.IsLoopback() || a.IsReserved() || a == own {
			t.Fatalf("exclusion violated: %v", a)
		}
		if a.Slash8() == own.Slash8() {
			same8++
		}
	}
	// Uniform over valid space: ≈1/256.
	assertFraction(t, "same /8 under ablation", same8, n, 1.0/256, 0.002)
}
