package worm

import (
	"testing"

	"repro/internal/ipv4"
)

func TestPreferenceValidate(t *testing.T) {
	bad := []Preference{
		{Same8: -0.1},
		{Same16: 1.1},
		{Same8: 0.6, Same16: 0.5}, // sums past 1
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
	good := []Preference{{}, CodeRedIIPreference(), NimdaPreference(), {Same24: 1}}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %d rejected: %v", i, err)
		}
	}
}

func TestLocalPreferenceDistribution(t *testing.T) {
	own := ipv4.MustParseAddr("18.31.200.5")
	prefs := Preference{Same8: 0.3, Same16: 0.2, Same24: 0.1}
	g, err := NewLocalPreference(own, prefs, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var s24, s16only, s8only, elsewhere int
	for i := 0; i < n; i++ {
		a := g.Next()
		switch {
		case a.Slash24() == own.Slash24():
			s24++
		case a.SameSlash16(own):
			s16only++
		case a.Slash8() == own.Slash8():
			s8only++
		default:
			elsewhere++
		}
	}
	checks := []struct {
		name  string
		count int
		want  float64
	}{
		{name: "same /24", count: s24, want: 0.1},
		{name: "same /16 only", count: s16only, want: 0.2},
		{name: "same /8 only", count: s8only, want: 0.3},
		{name: "elsewhere", count: elsewhere, want: 0.4},
	}
	for _, c := range checks {
		got := float64(c.count) / n
		// The fully random branch leaks tiny mass into the local buckets
		// (≤1/256); tolerate a small band.
		if got < c.want-0.01 || got > c.want+0.01 {
			t.Errorf("%s fraction = %.4f, want ≈%.2f", c.name, got, c.want)
		}
	}
}

func TestNimdaPreferenceProfile(t *testing.T) {
	own := ipv4.MustParseAddr("10.20.30.40")
	g, err := NewLocalPreference(own, NimdaPreference(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var same16 int
	for i := 0; i < n; i++ {
		if g.Next().SameSlash16(own) {
			same16++
		}
	}
	if got := float64(same16) / n; got < 0.49 || got > 0.52 {
		t.Errorf("Nimda same-/16 fraction = %.4f, want ≈0.5", got)
	}
}

func TestNewLocalPreferenceRejectsBadProfile(t *testing.T) {
	if _, err := NewLocalPreference(1, Preference{Same8: 2}, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSequentialScansUpward(t *testing.T) {
	g := NewSequential(3)
	prev := g.Next()
	for i := 0; i < 1000; i++ {
		cur := g.Next()
		if cur != prev+1 {
			t.Fatalf("non-sequential: %v then %v", prev, cur)
		}
		prev = cur
	}
	// Different seeds start at different points.
	if NewSequential(4).Next() == NewSequential(5).Next() {
		t.Error("different seeds share a start")
	}
}
