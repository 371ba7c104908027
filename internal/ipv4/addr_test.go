package ipv4

import (
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		give    string
		want    Addr
		wantErr bool
	}{
		{give: "0.0.0.0", want: 0},
		{give: "255.255.255.255", want: MaxAddr},
		{give: "10.0.0.1", want: 0x0a000001},
		{give: "192.168.0.100", want: 0xc0a80064},
		{give: "1.2.3.4", want: 0x01020304},
		{give: "256.0.0.1", wantErr: true},
		{give: "1.2.3", wantErr: true},
		{give: "1.2.3.4.5", wantErr: true},
		{give: "", wantErr: true},
		{give: "a.b.c.d", wantErr: true},
		{give: "1..2.3", wantErr: true},
		{give: "-1.2.3.4", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseAddr(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseAddr(%q) = %v, want error", tt.give, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAddr(%q): %v", tt.give, err)
			}
			if got != tt.want {
				t.Errorf("ParseAddr(%q) = %#x, want %#x", tt.give, uint32(got), uint32(tt.want))
			}
		})
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrOctets(t *testing.T) {
	a := MustParseAddr("17.34.51.68")
	o1, o2, o3, o4 := a.Octets()
	if o1 != 17 || o2 != 34 || o3 != 51 || o4 != 68 {
		t.Errorf("Octets() = %d.%d.%d.%d, want 17.34.51.68", o1, o2, o3, o4)
	}
}

func TestSlashIndexes(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	if got := a.Slash8(); got != 10 {
		t.Errorf("Slash8() = %d, want 10", got)
	}
	if got := a.Slash16(); got != 10<<8|20 {
		t.Errorf("Slash16() = %d, want %d", got, 10<<8|20)
	}
	if got := a.Slash24(); got != 10<<16|20<<8|30 {
		t.Errorf("Slash24() = %d, want %d", got, 10<<16|20<<8|30)
	}
	if a.SameSlash16(MustParseAddr("10.21.0.0")) {
		t.Error("SameSlash16 should not match across /16s")
	}
}

func TestAddrClassification(t *testing.T) {
	tests := []struct {
		give     string
		private  bool
		loopback bool
		reserved bool
	}{
		{give: "10.1.2.3", private: true},
		{give: "9.255.255.255"},
		{give: "11.0.0.0"},
		{give: "172.16.0.1", private: true},
		{give: "172.15.255.255"},
		{give: "172.31.255.255", private: true},
		{give: "172.32.0.0"},
		{give: "192.168.0.100", private: true},
		{give: "192.167.255.255"},
		{give: "192.169.0.0"},
		{give: "127.0.0.1", loopback: true, reserved: true},
		{give: "224.0.0.1", reserved: true},
		{give: "239.255.255.255", reserved: true},
		{give: "240.0.0.0", reserved: true},
		{give: "0.1.2.3", reserved: true},
		{give: "8.8.8.8"},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			a := MustParseAddr(tt.give)
			if got := a.IsPrivate(); got != tt.private {
				t.Errorf("IsPrivate() = %v, want %v", got, tt.private)
			}
			if got := a.IsLoopback(); got != tt.loopback {
				t.Errorf("IsLoopback() = %v, want %v", got, tt.loopback)
			}
			if got := a.IsReserved(); got != tt.reserved {
				t.Errorf("IsReserved() = %v, want %v", got, tt.reserved)
			}
		})
	}
}
