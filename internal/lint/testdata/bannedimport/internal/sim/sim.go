package sim

import (
	crand "crypto/rand"
	"math/rand"
	randv2 "math/rand/v2"
)

// Package initialization runs before the roots, so a package-level
// initializer of a root's package is a source; gen's draws are sources
// again at the call sites a root reaches.
var gen = rand.New(rand.NewSource(7)) // want "unseeded randomness from math/rand.New"

// RunExact is a determinism-contract root in this fixture tree: every
// call it reaches into one of the three rand packages is a source, and
// so is every draw from a math/rand generator, wherever it was built.
func RunExact(seed uint64, buf []byte) int {
	return int(seed) + draw(buf)
}

func draw(buf []byte) int {
	_, _ = crand.Read(buf) // want "unseeded randomness from crypto/rand.Read"
	n := randv2.IntN(4)    // want "unseeded randomness from math/rand/v2.IntN"
	n += gen.Intn(4)       // want "randomness from a math/rand generator (Intn) bypasses internal/rng"

	//lint:ignore detrace fixture proves the suppression path works
	n += rand.Int()
	return n
}

// shuffle sits in a root's package, but no root calls it: its draw
// cannot change a byte a root produces.
func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
