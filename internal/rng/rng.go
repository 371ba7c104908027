// Package rng provides the deterministic random-number substrate for the
// hotspots library.
//
// Three families of generators live here:
//
//   - Simulation RNGs (SplitMix64, Xoshiro256StarStar): fast, well-mixed
//     generators that drive the epidemic simulation engine. Every stream is
//     derived from an explicit 64-bit seed so that simulations are exactly
//     reproducible.
//   - MSVCRT: a bit-exact reimplementation of the Microsoft C runtime
//     rand()/srand() pair, which the Blaster worm (and CodeRedII's reseeding
//     logic) used for target generation. Its 15-bit outputs and weak mixing
//     are themselves a root cause of hotspots.
//   - LCG32: the general 32-bit linear congruential generator framework used
//     to model the Slammer worm's flawed target generator (see package
//     cycle for its exact cycle structure).
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator of Steele, Lea & Flood. It is used
// both directly (seed scrambling, cheap streams) and to seed Xoshiro.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a stateless scrambler
// used to derive independent sub-seeds from a master seed.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro is a xoshiro256** generator: the main workhorse for epidemic
// simulation. Not safe for concurrent use; use one per goroutine.
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro returns a xoshiro256** generator whose state is expanded from
// seed via SplitMix64, per the reference initialization procedure.
func NewXoshiro(seed uint64) *Xoshiro {
	sm := NewSplitMix64(seed)
	return &Xoshiro{s0: sm.Uint64(), s1: sm.Uint64(), s2: sm.Uint64(), s3: sm.Uint64()}
}

// SeedStream reseeds x in place with the (seed, id, step) stream: the
// three coordinates are folded through the SplitMix64 finalizer and the
// result expanded into xoshiro state exactly as NewXoshiro would. Every
// (seed, id, step) triple names an independent stream, so a simulation can
// hand each (agent, tick) pair its own generator and stay deterministic
// regardless of how agents are scheduled across goroutines. The receiver
// is reused rather than reallocated — the parallel exact driver reseeds
// one worker-owned generator per agent per tick on its hot path.
func (x *Xoshiro) SeedStream(seed, id, step uint64) {
	x.SeedHash(StreamHash(StreamKey(seed, id), Mix64(step)))
}

// SeedStream's fold, split so that a hot loop can hoist the parts that do
// not change: StreamKey(seed, id) is fixed per stream id, Mix64(step) per
// tick, and StreamHash(key, Mix64(step)) is the stream's head hash h. Then
// x.SeedHash(h) leaves x exactly as x.SeedStream(seed, id, step) would,
// and FirstFloat64(h) is that generator's first Float64 — priced at one
// finalizer instead of the four the full state expansion takes.

// StreamKey returns the per-id part of the (seed, id, step) fold.
func StreamKey(seed, id uint64) uint64 { return StreamHash(Mix64(seed), Mix64(id)) }

// StreamHash folds a mixed coordinate m into key: the (seed, id, step)
// stream's head hash is StreamHash(StreamKey(seed, id), Mix64(step)).
func StreamHash(key, m uint64) uint64 { return Mix64(key ^ m) }

// SeedHash reseeds x in place from a stream head hash, expanding it into
// xoshiro state exactly as NewXoshiro(h) would.
func (x *Xoshiro) SeedHash(h uint64) {
	sm := SplitMix64{state: h}
	x.s0 = sm.Uint64()
	x.s1 = sm.Uint64()
	x.s2 = sm.Uint64()
	x.s3 = sm.Uint64()
}

// FirstFloat64 returns the first Float64 of the generator SeedHash(h)
// would produce. xoshiro256**'s first output reads only s1, the second
// SplitMix64 output from h, which is Mix64(h+γ).
func FirstFloat64(h uint64) float64 {
	s1 := Mix64(h + 0x9e3779b97f4a7c15)
	return float64((bits.RotateLeft64(s1*5, 7)*9)>>11) / (1 << 53)
}

// NewXoshiroStream returns a fresh generator seeded for the (seed, id,
// step) stream; see SeedStream.
func NewXoshiroStream(seed, id, step uint64) *Xoshiro {
	x := &Xoshiro{}
	x.SeedStream(seed, id, step)
	return x
}

// Uint64 returns the next 64 pseudo-random bits.
func (x *Xoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Uint32 returns the next 32 pseudo-random bits.
func (x *Xoshiro) Uint32() uint32 { return uint32(x.Uint64() >> 32) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method keeps this branch-light.
func (x *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (x *Xoshiro) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Exponential returns an exponentially distributed value with the given
// mean (i.e. rate 1/mean). It returns 0 for non-positive means.
func (x *Xoshiro) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-x.Float64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the polar (Marsaglia) method.
func (x *Xoshiro) Normal(mean, stddev float64) float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		//lint:ignore float-eq the polar method's rejection step requires the exact s==0 test; a tolerance would bias the tails
		if s >= 1 || s == 0 {
			continue
		}
		// The second variate is discarded; the simulation draws normals
		// rarely enough that caching it is not worth the state.
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}
