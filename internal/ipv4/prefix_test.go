package ipv4

import "testing"

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		give     string
		wantAddr string
		wantBits int
		wantErr  bool
	}{
		{give: "10.0.0.0/8", wantAddr: "10.0.0.0", wantBits: 8},
		{give: "192.168.0.0/16", wantAddr: "192.168.0.0", wantBits: 16},
		{give: "1.2.3.4/32", wantAddr: "1.2.3.4", wantBits: 32},
		{give: "0.0.0.0/0", wantAddr: "0.0.0.0", wantBits: 0},
		// Host bits are cleared.
		{give: "10.1.2.3/8", wantAddr: "10.0.0.0", wantBits: 8},
		{give: "10.0.0.0/33", wantErr: true},
		{give: "10.0.0.0", wantErr: true},
		{give: "10.0.0.0/x", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			p, err := ParsePrefix(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParsePrefix(%q) = %v, want error", tt.give, p)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePrefix(%q): %v", tt.give, err)
			}
			if p.Addr() != MustParseAddr(tt.wantAddr) || p.Bits() != tt.wantBits {
				t.Errorf("ParsePrefix(%q) = %v, want %s/%d", tt.give, p, tt.wantAddr, tt.wantBits)
			}
		})
	}
}

func TestPrefixRangeAndContains(t *testing.T) {
	p := MustParsePrefix("192.168.0.0/16")
	if got := p.NumAddrs(); got != 65536 {
		t.Errorf("NumAddrs() = %d, want 65536", got)
	}
	if p.First() != MustParseAddr("192.168.0.0") {
		t.Errorf("First() = %v", p.First())
	}
	if p.Last() != MustParseAddr("192.168.255.255") {
		t.Errorf("Last() = %v", p.Last())
	}
	if !p.Contains(MustParseAddr("192.168.42.42")) {
		t.Error("Contains should include interior address")
	}
	if p.Contains(MustParseAddr("192.169.0.0")) {
		t.Error("Contains should exclude next /16")
	}
	if got := p.Nth(256); got != MustParseAddr("192.168.1.0") {
		t.Errorf("Nth(256) = %v, want 192.168.1.0", got)
	}
}

func TestPrefixWholeSpace(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	if got := p.NumAddrs(); got != 1<<32 {
		t.Errorf("NumAddrs() = %d, want 2^32", got)
	}
	if p.Last() != MaxAddr {
		t.Errorf("Last() = %v, want 255.255.255.255", p.Last())
	}
	if !p.Contains(MaxAddr) || !p.Contains(0) {
		t.Error("the default route must contain everything")
	}
}

func TestPrefixSlash24s(t *testing.T) {
	tests := []struct {
		give string
		want int
	}{
		{give: "1.2.3.0/24", want: 1},
		{give: "1.2.3.128/25", want: 1},
		{give: "1.2.0.0/16", want: 256},
		{give: "1.0.0.0/8", want: 65536},
		{give: "1.2.3.4/32", want: 1},
	}
	for _, tt := range tests {
		if got := MustParsePrefix(tt.give).Slash24s(); got != tt.want {
			t.Errorf("%s.Slash24s() = %d, want %d", tt.give, got, tt.want)
		}
	}
}

// FuzzParsePrefix checks the CIDR parser never panics and that every
// accepted input survives a String -> ParsePrefix round trip unchanged
// (host bits cleared, mask length preserved).
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"10.0.0.0/8", "192.168.0.0/16", "1.2.3.4/32", "0.0.0.0/0",
		"10.1.2.3/8", "255.255.255.255/32", "10.0.0.0/33", "10.0.0.0",
		"/8", "1.2.3.4/", "1.2.3.4/-1", "1.2.3.4/08", "01.2.3.4/8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		back, err := ParsePrefix(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.String(), s, err)
		}
		if back != p {
			t.Fatalf("round trip diverged: %q -> %v -> %v", s, p, back)
		}
		if p.Addr()&^maskFor(p.Bits()) != 0 {
			t.Fatalf("host bits not cleared: %q -> %v", s, p)
		}
	})
}
