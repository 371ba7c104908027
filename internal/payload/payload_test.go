package payload

import (
	"bytes"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rng"
)

func TestRabinWindowCount(t *testing.T) {
	data := make([]byte, 100)
	n := Rabin(data, 40, func(Fingerprint) {})
	if n != 61 {
		t.Errorf("windows = %d, want 61", n)
	}
	if n := Rabin(data[:10], 40, func(Fingerprint) {}); n != 0 {
		t.Errorf("short data produced %d windows", n)
	}
	if n := Rabin(data, 0, func(Fingerprint) {}); n != 0 {
		t.Errorf("zero window produced %d windows", n)
	}
}

func TestRabinRollingMatchesDirect(t *testing.T) {
	// The rolling hash must equal a direct polynomial evaluation of every
	// window.
	r := rng.NewXoshiro(1)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(r.Uint64n(256))
	}
	const window = 16
	var got []Fingerprint
	Rabin(data, window, func(fp Fingerprint) { got = append(got, fp) })
	for i := 0; i+window <= len(data); i++ {
		var h uint64
		for _, b := range data[i : i+window] {
			h = h*rabinPoly + uint64(b)
		}
		if got[i] != Fingerprint(h) {
			t.Fatalf("window %d: rolling %x != direct %x", i, got[i], h)
		}
	}
}

func TestRabinShiftInvariance(t *testing.T) {
	// The same substring at different offsets yields the same fingerprint —
	// the property Autograph/EarlyBird rely on to match worm content
	// embedded at varying positions.
	motif := []byte("GET /default.ida?NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN")
	a := append([]byte("xxxx"), motif...)
	b := append([]byte("yyyyyyyyyyyy"), motif...)
	seen := make(map[Fingerprint]int)
	Rabin(a, 32, func(fp Fingerprint) { seen[fp]++ })
	var common int
	Rabin(b, 32, func(fp Fingerprint) {
		if seen[fp] > 0 {
			common++
		}
	})
	if common < len(motif)-32 {
		t.Errorf("common fingerprints = %d, want ≥ %d", common, len(motif)-32)
	}
}

func TestSampled(t *testing.T) {
	if !Sampled(Fingerprint(0), 64) || Sampled(Fingerprint(1), 64) {
		t.Error("sampling predicate wrong")
	}
	if !Sampled(Fingerprint(7), 1) || !Sampled(Fingerprint(7), 0) {
		t.Error("rate ≤ 1 must sample everything")
	}
}

func TestWormPayloadInvariantRegion(t *testing.T) {
	w := DefaultWormPayload("slammer")
	a := w.Instance(1)
	b := w.Instance(2)
	if len(a) != w.InvariantLen+w.FillerLen {
		t.Fatalf("payload length %d", len(a))
	}
	if !bytes.Equal(a[:w.InvariantLen], b[:w.InvariantLen]) {
		t.Error("invariant regions differ between instances")
	}
	if bytes.Equal(a[w.InvariantLen:], b[w.InvariantLen:]) {
		t.Error("filler identical between instances (no polymorphism)")
	}
	other := DefaultWormPayload("blaster").Instance(1)
	if bytes.Equal(a[:w.InvariantLen], other[:w.InvariantLen]) {
		t.Error("different worms share an invariant region")
	}
}

func TestEarlybirdValidation(t *testing.T) {
	bad := []EarlybirdConfig{
		{Window: 0, PrevalenceThreshold: 1, SrcThreshold: 1, DstThreshold: 1},
		{Window: 40, PrevalenceThreshold: 0, SrcThreshold: 1, DstThreshold: 1},
		{Window: 40, PrevalenceThreshold: 1, SrcThreshold: 0, DstThreshold: 1},
		{Window: 40, PrevalenceThreshold: 1, SrcThreshold: 1, DstThreshold: 0},
	}
	for i, cfg := range bad {
		if _, err := NewEarlybird(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestEarlybirdDetectsWorm(t *testing.T) {
	cfg := DefaultEarlybirdConfig()
	cfg.SampleRate = 8 // denser sampling for the small test volume
	eb, err := NewEarlybird(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWormPayload("slammer")
	r := rng.NewXoshiro(3)
	alarmAt := -1
	for i := 0; i < 200; i++ {
		src := ipv4.Addr(0x0a000000 + r.Uint64n(1000))
		dst := ipv4.Addr(0x29000000 + r.Uint64n(1000))
		if fired := eb.Observe(src, dst, w.Instance(uint64(i))); len(fired) > 0 && alarmAt < 0 {
			alarmAt = i
		}
	}
	if alarmAt < 0 {
		t.Fatal("worm content never alarmed")
	}
	if alarmAt > 50 {
		t.Errorf("alarm after %d packets, want early", alarmAt)
	}
}

func TestEarlybirdIgnoresBenignAndLowDispersion(t *testing.T) {
	cfg := DefaultEarlybirdConfig()
	cfg.SampleRate = 8
	eb, err := NewEarlybird(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unique benign content never repeats: no alarms.
	for i := 0; i < 500; i++ {
		eb.Observe(ipv4.Addr(i), ipv4.Addr(i*3), BenignPayload(uint64(i), 300))
	}
	if eb.Alarms() != 0 {
		t.Errorf("benign traffic alarmed %d signatures", eb.Alarms())
	}

	// Prevalent content from a single source to a single destination (a
	// chatty but benign flow) is gated out by address dispersion.
	flow := DefaultWormPayload("bulk-transfer")
	src, dst := ipv4.Addr(1), ipv4.Addr(2)
	for i := 0; i < 500; i++ {
		eb.Observe(src, dst, flow.Instance(0))
	}
	if eb.Alarms() != 0 {
		t.Errorf("single-flow traffic alarmed %d signatures", eb.Alarms())
	}
}

func TestEarlybirdEviction(t *testing.T) {
	cfg := DefaultEarlybirdConfig()
	cfg.SampleRate = 1
	cfg.Window = 8
	cfg.MaxTracked = 64
	eb, err := NewEarlybird(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eb.Observe(ipv4.Addr(i), ipv4.Addr(i), BenignPayload(uint64(i), 64))
	}
	if len(eb.entries) > 64 {
		t.Errorf("tracked %d fingerprints, cap 64", len(eb.entries))
	}
}

func TestEarlybirdHotspotBlindness(t *testing.T) {
	// The paper's Section 5 argument: two identical EarlyBird sensors, one
	// inside the worm's hit-list, one outside. Same worm, same volume —
	// only the in-hotspot sensor ever alarms.
	cfg := DefaultEarlybirdConfig()
	cfg.SampleRate = 8
	inHotspot, err := NewEarlybird(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outside, err := NewEarlybird(cfg)
	if err != nil {
		t.Fatal(err)
	}
	monitoredIn := ipv4.MustParsePrefix("10.1.0.0/16")  // inside hit-list
	monitoredOut := ipv4.MustParsePrefix("41.7.0.0/16") // outside
	hitList := ipv4.MustParsePrefix("10.0.0.0/8")

	w := DefaultWormPayload("hitlist-worm")
	r := rng.NewXoshiro(9)
	for i := 0; i < 30000; i++ {
		src := ipv4.Addr(0x50000000 + r.Uint64n(5000))
		dst := hitList.Nth(r.Uint64n(hitList.NumAddrs()))
		data := w.Instance(uint64(i))
		if monitoredIn.Contains(dst) {
			inHotspot.Observe(src, dst, data)
		}
		if monitoredOut.Contains(dst) {
			outside.Observe(src, dst, data)
		}
	}
	if inHotspot.Alarms() == 0 {
		t.Error("in-hotspot sensor never alarmed")
	}
	if outside.Alarms() != 0 {
		t.Error("outside sensor alarmed on traffic it cannot see")
	}
}
