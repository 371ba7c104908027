package sensor

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/payload"
	"repro/internal/rng"
)

func TestPayloadDelivered(t *testing.T) {
	tests := []struct {
		kind ProbeKind
		mode ResponseMode
		want bool
	}{
		{kind: UDPPayload, mode: Passive, want: true},
		{kind: UDPPayload, mode: ActiveSYNACK, want: true},
		{kind: TCPSYN, mode: Passive, want: false},
		{kind: TCPSYN, mode: ActiveSYNACK, want: true},
		{kind: ProbeKind(0), mode: ActiveSYNACK, want: false},
	}
	for _, tt := range tests {
		if got := PayloadDelivered(tt.kind, tt.mode); got != tt.want {
			t.Errorf("PayloadDelivered(%v, %v) = %v, want %v", tt.kind, tt.mode, got, tt.want)
		}
	}
}

func TestWormProbeKind(t *testing.T) {
	tests := []struct {
		worm string
		want ProbeKind
	}{
		{worm: "slammer", want: UDPPayload},
		{worm: "witty", want: UDPPayload},
		{worm: "codered2", want: TCPSYN},
		{worm: "blaster", want: TCPSYN},
	}
	for _, tt := range tests {
		got, ok := WormProbeKind(tt.worm)
		if !ok || got != tt.want {
			t.Errorf("WormProbeKind(%s) = %v,%v, want %v", tt.worm, got, ok, tt.want)
		}
	}
	if _, ok := WormProbeKind("unknown"); ok {
		t.Error("unknown worm classified")
	}
}

func TestObserveKindPayloadAccounting(t *testing.T) {
	b := Block{Label: "T", Prefix: ipv4.MustParsePrefix("10.0.0.0/24")}
	src := ipv4.MustParseAddr("1.1.1.1")
	dst := ipv4.MustParseAddr("10.0.0.5")

	active := NewSensor(b)
	if rec, pay := active.ObserveKind(src, dst, TCPSYN); !rec || !pay {
		t.Errorf("active sensor: recorded=%v payload=%v, want true/true", rec, pay)
	}
	if rec, pay := active.ObserveKind(src, dst, UDPPayload); !rec || !pay {
		t.Errorf("active sensor UDP: recorded=%v payload=%v", rec, pay)
	}

	passive := NewSensor(b)
	passive.Mode = Passive
	if rec, pay := passive.ObserveKind(src, dst, TCPSYN); !rec || pay {
		t.Errorf("passive sensor TCP: recorded=%v payload=%v, want true/false", rec, pay)
	}
	if rec, pay := passive.ObserveKind(src, dst, UDPPayload); !rec || !pay {
		t.Errorf("passive sensor UDP: recorded=%v payload=%v, want true/true", rec, pay)
	}
	// The probe counts are identical — only payload visibility differs.
	if active.TotalAttempts() != passive.TotalAttempts() {
		t.Error("probe accounting diverged between modes")
	}

	// Out-of-block probes report nothing.
	if rec, pay := active.ObserveKind(src, ipv4.MustParseAddr("10.0.1.0"), TCPSYN); rec || pay {
		t.Error("out-of-block probe recorded")
	}
}

// TestActiveResponseEnablesSignatureExtraction is the IMS design rationale
// end to end: the same TCP worm traffic hits a passive telescope and an
// active-response darknet; only the active sensor can feed content
// prevalence and extract a signature.
func TestActiveResponseEnablesSignatureExtraction(t *testing.T) {
	block := Block{Label: "T", Prefix: ipv4.MustParsePrefix("10.0.0.0/16")}
	active := NewSensor(block)
	passive := NewSensor(block)
	passive.Mode = Passive

	ebCfg := payload.DefaultEarlybirdConfig()
	ebCfg.SampleRate = 8
	activeEB, err := payload.NewEarlybird(ebCfg)
	if err != nil {
		t.Fatal(err)
	}
	passiveEB, err := payload.NewEarlybird(ebCfg)
	if err != nil {
		t.Fatal(err)
	}

	wormContent := payload.DefaultWormPayload("codered2")
	kind, _ := WormProbeKind("codered2")
	r := rng.NewXoshiro(5)
	for i := 0; i < 300; i++ {
		src := ipv4.Addr(0x20000000 + r.Uint64n(2000))
		dst := block.Prefix.Nth(r.Uint64n(block.Prefix.NumAddrs()))
		data := wormContent.Instance(uint64(i))
		if _, pay := active.ObserveKind(src, dst, kind); pay {
			activeEB.Observe(src, dst, data)
		}
		if _, pay := passive.ObserveKind(src, dst, kind); pay {
			passiveEB.Observe(src, dst, data)
		}
	}
	if activeEB.Alarms() == 0 {
		t.Error("active-response sensor never extracted a signature")
	}
	if passiveEB.Alarms() != 0 {
		t.Error("passive telescope extracted a TCP signature it could not have seen")
	}
	if passive.TotalAttempts() != active.TotalAttempts() {
		t.Error("both sensors should count the same probes")
	}
}

func TestResponseStrings(t *testing.T) {
	if UDPPayload.String() != "udp-payload" || TCPSYN.String() != "tcp-syn" {
		t.Error("probe kind names wrong")
	}
	if Passive.String() != "passive" || ActiveSYNACK.String() != "active-synack" {
		t.Error("mode names wrong")
	}
	if ProbeKind(9).String() != "ProbeKind(9)" || ResponseMode(9).String() != "ResponseMode(9)" {
		t.Error("unknown formatting wrong")
	}
}
