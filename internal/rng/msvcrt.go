package rng

// MSVCRT is a bit-exact model of the Microsoft Visual C runtime's
// srand()/rand() pair:
//
//	state = state*214013 + 2531011
//	rand() = (state >> 16) & 0x7fff
//
// The Blaster worm seeds this generator with GetTickCount() — the number of
// milliseconds since boot — which is the "bad source of entropy" the paper
// identifies: a worm launched at boot always sees a tick count drawn from a
// narrow window around the machine's boot duration, so the PRNG's entire
// output sequence, and therefore the worm's scanning start point, is almost
// fully determined by hardware generation.
type MSVCRT struct {
	state uint32
}

// MSVCRT generator constants (shared with the Slammer LCG multiplier).
const (
	MSVCRTMultiplier = 214013
	MSVCRTIncrement  = 2531011
)

// NewMSVCRT returns a generator seeded as if by srand(seed).
func NewMSVCRT(seed uint32) *MSVCRT {
	return &MSVCRT{state: seed}
}

// Rand returns the next value in [0, 32767], matching rand().
func (m *MSVCRT) Rand() int {
	m.state = m.state*MSVCRTMultiplier + MSVCRTIncrement
	return int((m.state >> 16) & 0x7fff)
}
