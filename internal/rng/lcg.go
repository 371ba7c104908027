package rng

// LCG32 is a 32-bit linear congruential generator of the form
//
//	s(i+1) = a·s(i) + b  (mod 2^32)
//
// exactly the shape of the Slammer worm's target generator. The full 32-bit
// state is the output: Slammer used the state directly as the next target
// IPv4 address.
//
// Whether such a generator walks the whole 32-bit space or collapses into
// short cycles depends entirely on a and b; package cycle computes the exact
// cycle structure. LCG32 itself is just the iteration.
type LCG32 struct {
	// A is the multiplier and B the increment; both are fixed for the life
	// of the generator.
	A, B uint32

	state uint32
}

// NewLCG32 returns an LCG with multiplier a, increment b, and initial seed.
func NewLCG32(a, b, seed uint32) *LCG32 {
	return &LCG32{A: a, B: b, state: seed}
}

// Next advances the generator one step and returns the new 32-bit state.
func (l *LCG32) Next() uint32 {
	l.state = l.state*l.A + l.B
	return l.state
}
