package rng

import "testing"

// TestSeedStreamDeterministic: the same (seed, id, step) triple always
// yields the same stream, and SeedStream on a dirty generator matches a
// freshly constructed one — the in-place reseed must leave no residue.
func TestSeedStreamDeterministic(t *testing.T) {
	a := NewXoshiroStream(42, 7, 1000)
	b := NewXoshiro(999) // dirty state to overwrite
	for i := 0; i < 10; i++ {
		b.Uint64()
	}
	b.SeedStream(42, 7, 1000)
	for i := 0; i < 100; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("draw %d: reseeded stream %#x != fresh stream %#x", i, got, want)
		}
	}
}

// TestSeedStreamIndependence: neighbouring triples must not collide or
// produce correlated prefixes — each coordinate perturbation changes the
// stream.
func TestSeedStreamIndependence(t *testing.T) {
	base := NewXoshiroStream(42, 7, 1000)
	first := base.Uint64()
	variants := []struct {
		name           string
		seed, id, step uint64
	}{
		{"seed+1", 43, 7, 1000},
		{"id+1", 42, 8, 1000},
		{"step+1", 42, 7, 1001},
		{"swapped id/step", 42, 1000, 7},
	}
	for _, v := range variants {
		x := NewXoshiroStream(v.seed, v.id, v.step)
		if x.Uint64() == first {
			t.Errorf("%s: first draw collides with base stream", v.name)
		}
	}
}

// TestSeedStreamUniformity sanity-checks that stream-seeded generators
// still produce roughly uniform bits (a gross mixing failure — e.g. all
// streams starting near zero — would show up here).
func TestSeedStreamUniformity(t *testing.T) {
	var ones int
	const streams, draws = 256, 4
	for id := uint64(0); id < streams; id++ {
		x := NewXoshiroStream(1, id, id*31)
		for i := 0; i < draws; i++ {
			v := x.Uint64()
			for ; v != 0; v &= v - 1 {
				ones++
			}
		}
	}
	total := streams * draws * 64
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("bit density %.4f outside [0.48, 0.52]", frac)
	}
}

// streamRef is SeedStream's fold written out in full, as the exact
// driver has always seeded its per-(agent, tick) streams: seed, id and
// step mixed through the SplitMix64 finalizer and the result expanded by
// NewXoshiro's reference initialization.
func streamRef(seed, id, step uint64) *Xoshiro {
	h := Mix64(seed)
	h = Mix64(h ^ Mix64(id))
	h = Mix64(h ^ Mix64(step))
	return NewXoshiro(h)
}

// TestStreamHeadMatchesSeedStream checks the split fold against the
// whole one over random (seed, id, step) triples: the keyed head hash
// seeds the same state as SeedStream, FirstFloat64 predicts that
// generator's first Float64, and SeedStream itself still seeds the
// stream it always did, so the exact driver's draws do not move.
func TestStreamHeadMatchesSeedStream(t *testing.T) {
	r := NewXoshiro(20260)
	for i := 0; i < 10000; i++ {
		seed, id, step := r.Uint64(), r.Uint64()>>uint(r.Intn(64)), r.Uint64()>>uint(r.Intn(64))
		h := StreamHash(StreamKey(seed, id), Mix64(step))
		var viaHash, viaStream Xoshiro
		viaHash.SeedHash(h)
		viaStream.SeedStream(seed, id, step)
		ref := streamRef(seed, id, step)
		if viaHash != *ref || viaStream != *ref {
			t.Fatalf("(%d, %d, %d): SeedHash state %v, SeedStream state %v, reference %v", seed, id, step, viaHash, viaStream, *ref)
		}
		if got, want := FirstFloat64(h), ref.Float64(); got != want {
			t.Fatalf("(%d, %d, %d): FirstFloat64 %v, first Float64 %v", seed, id, step, got, want)
		}
	}
}
