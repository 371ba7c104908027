// Package payload implements the content-prevalence detection substrate the
// paper's Section 5 argues hotspots undermine: Rabin-fingerprint content
// sampling with prevalence and address-dispersion tracking, in the style of
// EarlyBird (Singh et al., OSDI'04) and Autograph (Kim & Karp, USENIX
// Security'04) — the paper's references [24] and [12].
//
// The pipeline: every observed packet's payload is scanned with a rolling
// Rabin fingerprint over fixed-size windows; a deterministic subset of
// fingerprints is sampled (value sampling); each sampled fingerprint's
// occurrence count and source/destination address dispersion are tracked;
// a signature alarm fires when all three cross their thresholds. Worm
// content is invariant and arrives from ever more sources toward ever more
// destinations, so it crosses quickly — but only at sensors the worm's
// hotspots actually reach.
package payload

import (
	"errors"
	"slices"

	"repro/internal/ipv4"
)

// rabinPoly is the multiplier of the rolling polynomial hash; any odd
// constant with good mixing works for simulation purposes.
const rabinPoly = 0x3B9ACA07

// Fingerprint is a Rabin fingerprint of one content window.
type Fingerprint uint64

// Rabin computes the rolling fingerprints of every window-sized substring
// of data, invoking emit for each. It returns the number of windows.
func Rabin(data []byte, window int, emit func(Fingerprint)) int {
	if window <= 0 || len(data) < window {
		return 0
	}
	// pow = rabinPoly^(window-1) for removing the outgoing byte.
	var pow uint64 = 1
	for i := 0; i < window-1; i++ {
		pow *= rabinPoly
	}
	var h uint64
	for i := 0; i < window; i++ {
		h = h*rabinPoly + uint64(data[i])
	}
	emit(Fingerprint(h))
	n := 1
	for i := window; i < len(data); i++ {
		h -= uint64(data[i-window]) * pow
		h = h*rabinPoly + uint64(data[i])
		emit(Fingerprint(h))
		n++
	}
	return n
}

// Sampled reports whether a fingerprint is in the deterministic value
// sample (EarlyBird samples fingerprints whose low bits match a pattern so
// every sensor samples the same substrings).
func Sampled(fp Fingerprint, rate uint) bool {
	if rate <= 1 {
		return true
	}
	return uint64(fp)%uint64(rate) == 0
}

// EarlybirdConfig tunes the detector.
type EarlybirdConfig struct {
	// Window is the substring length fingerprinted (EarlyBird: 40 bytes).
	Window int
	// SampleRate keeps 1/SampleRate of fingerprints (EarlyBird: 64).
	SampleRate uint
	// PrevalenceThreshold is the occurrence count that makes content
	// "prevalent"; SrcThreshold and DstThreshold are the address
	// dispersion gates.
	PrevalenceThreshold uint64
	SrcThreshold        int
	DstThreshold        int
	// MaxTracked bounds the fingerprint table (oldest-inserted entries are
	// evicted beyond it; worm content re-enters immediately).
	MaxTracked int
}

// DefaultEarlybirdConfig returns EarlyBird-like defaults scaled for
// simulation traffic volumes.
func DefaultEarlybirdConfig() EarlybirdConfig {
	return EarlybirdConfig{
		Window:              40,
		SampleRate:          64,
		PrevalenceThreshold: 12,
		SrcThreshold:        5,
		DstThreshold:        5,
		MaxTracked:          1 << 16,
	}
}

// Earlybird is a content-prevalence detector instance (one per sensor).
// Not safe for concurrent use.
type Earlybird struct {
	cfg     EarlybirdConfig
	entries map[Fingerprint]*contentEntry
	order   []Fingerprint // insertion order for bounded eviction
	alarms  map[Fingerprint]bool
}

// contentEntry tracks one sampled fingerprint.
type contentEntry struct {
	count uint64
	srcs  addrSet
	dsts  addrSet
}

// addrSet holds distinct addresses up to a limit. The alarm only asks
// whether a dispersion threshold is reached, so the set stops growing at
// it: its length is min(distinct addresses seen, limit).
type addrSet []ipv4.Addr

func (s *addrSet) add(a ipv4.Addr, limit int) {
	if len(*s) < limit && !slices.Contains(*s, a) {
		*s = append(*s, a)
	}
}

// NewEarlybird builds a detector.
func NewEarlybird(cfg EarlybirdConfig) (*Earlybird, error) {
	if cfg.Window <= 0 {
		return nil, errors.New("payload: non-positive window")
	}
	if cfg.PrevalenceThreshold == 0 || cfg.SrcThreshold <= 0 || cfg.DstThreshold <= 0 {
		return nil, errors.New("payload: thresholds must be positive")
	}
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = 1 << 16
	}
	return &Earlybird{
		cfg:     cfg,
		entries: make(map[Fingerprint]*contentEntry),
		alarms:  make(map[Fingerprint]bool),
	}, nil
}

// Observe processes one packet and returns the fingerprints (if any) whose
// signature alarms fired on this packet.
func (e *Earlybird) Observe(src, dst ipv4.Addr, data []byte) []Fingerprint {
	var fired []Fingerprint
	Rabin(data, e.cfg.Window, func(fp Fingerprint) {
		if !Sampled(fp, e.cfg.SampleRate) {
			return
		}
		ent, ok := e.entries[fp]
		if !ok {
			e.evictIfFull()
			ent = &contentEntry{}
			e.entries[fp] = ent
			e.order = append(e.order, fp)
		}
		ent.count++
		ent.srcs.add(src, e.cfg.SrcThreshold)
		ent.dsts.add(dst, e.cfg.DstThreshold)
		if !e.alarms[fp] &&
			ent.count >= e.cfg.PrevalenceThreshold &&
			len(ent.srcs) >= e.cfg.SrcThreshold &&
			len(ent.dsts) >= e.cfg.DstThreshold {
			e.alarms[fp] = true
			fired = append(fired, fp)
		}
	})
	return fired
}

// evictIfFull drops the oldest tracked fingerprint when at capacity,
// preserving alarm history.
func (e *Earlybird) evictIfFull() {
	for len(e.entries) >= e.cfg.MaxTracked && len(e.order) > 0 {
		victim := e.order[0]
		e.order = e.order[1:]
		delete(e.entries, victim)
	}
}

// Alarms returns the number of distinct alarmed fingerprints.
func (e *Earlybird) Alarms() int { return len(e.alarms) }
