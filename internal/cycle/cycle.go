// Package cycle computes the exact cycle structure of affine maps
//
//	T(x) = A·x + B  (mod 2^m),  A ≡ 1 (mod 4)
//
// which is the family the Slammer worm's flawed target generator belongs to
// (A = 214013, B = one of three OR-corrupted increments; m = 32).
//
// The analysis is the algorithmic-factor core of the hotspots paper's
// Slammer case study: the period of every state, the census of cycle
// lengths, and the set of states trapped in short cycles are all computed in
// closed form from 2-adic valuations, with a brute-force enumerator for
// verification at reduced moduli.
//
// # Mathematics
//
// Write d(x) = (A−1)·x + B and S_t = 1 + A + … + A^{t−1}. Then
//
//	T^t(x) = x + S_t · d(x)  (mod 2^m).
//
// For A ≡ 1 (mod 4), the lifting-the-exponent lemma gives
// v2(A^t − 1) = v2(A−1) + v2(t), hence v2(S_t) = v2(t). The period of x is
// therefore the least t with v2(t) ≥ m − v2(d(x)):
//
//	period(x) = 2^max(0, m − v2(d(x)))
//
// Every cycle length is a power of two. With α = v2(A−1) and β = v2(B):
//
//   - β < α: every state has period 2^(m−β); there are 2^β cycles.
//     (B odd ⇒ the classical full-period LCG.)
//   - β ≥ α: for k = 0 … m−α−1 there are exactly 2^(α−1) cycles of length
//     2^(m−α−k), and 2^α fixed points. Total cycle count:
//     (m−α)·2^(α−1) + 2^α.
//
// For Slammer (α = 2, m = 32, 4 | B for all three corrupted increments) this
// yields 30·2 + 4 = 64 cycles — exactly the "64 cycles for each b value" the
// paper reports — with lengths spanning 1 … 2^30.
package cycle

import (
	"fmt"
	"math/bits"
	"sort"
)

// Map is an affine map x ↦ A·x + B over m-bit integers. Bits may be reduced
// below 32 for brute-force verification of the closed-form results.
type Map struct {
	A, B uint32
	Bits uint // modulus is 2^Bits; 1 ≤ Bits ≤ 32
}

// NewMap constructs an affine map mod 2^bits and validates the A ≡ 1 (mod 4)
// precondition the closed-form analysis requires.
func NewMap(a, b uint32, bitCount uint) (Map, error) {
	if bitCount < 3 || bitCount > 32 {
		return Map{}, fmt.Errorf("cycle: bits %d out of range [3,32]", bitCount)
	}
	if a%4 != 1 {
		return Map{}, fmt.Errorf("cycle: multiplier %d is not ≡ 1 (mod 4)", a)
	}
	return Map{A: a, B: b, Bits: bitCount}, nil
}

// MustNewMap is like NewMap but panics on error.
func MustNewMap(a, b uint32, bitCount uint) Map {
	m, err := NewMap(a, b, bitCount)
	if err != nil {
		panic(err)
	}
	return m
}

// mask returns the modulus mask 2^Bits − 1.
func (m Map) mask() uint32 {
	if m.Bits >= 32 {
		return ^uint32(0)
	}
	return (1 << m.Bits) - 1
}

// Step applies the map once.
func (m Map) Step(x uint32) uint32 {
	return (x*m.A + m.B) & m.mask()
}

// D returns d(x) = (A−1)·x + B mod 2^Bits, whose 2-adic valuation determines
// the period of x.
func (m Map) D(x uint32) uint32 {
	return ((m.A-1)*x + m.B) & m.mask()
}

// V2D returns v2(d(x)), clamped to Bits when d(x) ≡ 0.
func (m Map) V2D(x uint32) uint {
	d := m.D(x)
	if d == 0 {
		return m.Bits
	}
	v := uint(bits.TrailingZeros32(d))
	if v > m.Bits {
		v = m.Bits
	}
	return v
}

// Period returns the exact cycle length of the cycle containing x.
func (m Map) Period(x uint32) uint64 {
	v := m.V2D(x)
	if v >= m.Bits {
		return 1
	}
	return 1 << (m.Bits - v)
}

// Alpha returns v2(A−1).
func (m Map) Alpha() uint {
	v := uint(bits.TrailingZeros32(m.A - 1))
	if v > m.Bits {
		v = m.Bits
	}
	return v
}

// Beta returns v2(B), clamped to Bits when B ≡ 0.
func (m Map) Beta() uint {
	b := m.B & m.mask()
	if b == 0 {
		return m.Bits
	}
	v := uint(bits.TrailingZeros32(b))
	if v > m.Bits {
		v = m.Bits
	}
	return v
}

// Class describes one equivalence class of the census: all cycles sharing a
// length.
type Class struct {
	Length uint64 // cycle length (a power of two)
	Cycles uint64 // number of distinct cycles of this length
	States uint64 // Length × Cycles
}

// Census returns the exact cycle-length census of the map, longest first.
// The result is closed-form; no state enumeration occurs.
func (m Map) Census() []Class {
	alpha, beta := m.Alpha(), m.Beta()
	var out []Class
	if alpha >= m.Bits {
		// A ≡ 1 (mod 2^Bits): pure translation x ↦ x + B.
		if beta >= m.Bits {
			return []Class{{Length: 1, Cycles: 1 << m.Bits, States: 1 << m.Bits}}
		}
		return []Class{{
			Length: 1 << (m.Bits - beta),
			Cycles: 1 << beta,
			States: 1 << m.Bits,
		}}
	}
	if beta < alpha {
		// Every state shares v2(d) = beta.
		out = append(out, Class{
			Length: 1 << (m.Bits - beta),
			Cycles: 1 << beta,
			States: 1 << m.Bits,
		})
		return out
	}
	// beta ≥ alpha: graded structure plus fixed points.
	for k := uint(0); k <= m.Bits-alpha-1; k++ {
		length := uint64(1) << (m.Bits - alpha - k)
		cycles := uint64(1) << (alpha - 1)
		out = append(out, Class{Length: length, Cycles: cycles, States: length * cycles})
	}
	out = append(out, Class{Length: 1, Cycles: 1 << alpha, States: 1 << alpha})
	sort.Slice(out, func(i, j int) bool { return out[i].Length > out[j].Length })
	return out
}

// TotalCycles returns the total number of distinct cycles of the map.
func (m Map) TotalCycles() uint64 {
	var n uint64
	for _, c := range m.Census() {
		n += c.Cycles
	}
	return n
}

// Progression is an arithmetic progression of states {Start + i·Step mod 2^Bits}.
type Progression struct {
	Start uint32
	Step  uint32
	Count uint64
}

// Nth returns the i-th element of the progression.
func (p Progression) Nth(i uint64) uint32 {
	return p.Start + uint32(i)*p.Step
}

// StatesWithPeriodAtMost returns the set of states whose period divides
// maxLen (a power of two), as an arithmetic progression, or ok=false when no
// state qualifies (maxLen smaller than the minimum cycle length).
//
// States of period ≤ 2^c satisfy d(x) ≡ 0 (mod 2^(Bits−c)), a single linear
// congruence, so they always form an arithmetic progression. Enumerating it
// lets callers find every short-cycle state — the "targeted denial of
// service" trap states of the Slammer analysis — without touching the other
// ~2^32 states.
func (m Map) StatesWithPeriodAtMost(maxLen uint64) (Progression, bool) {
	if maxLen == 0 {
		return Progression{}, false
	}
	if maxLen >= 1<<m.Bits {
		return Progression{Start: 0, Step: 1, Count: 1 << m.Bits}, true
	}
	c := uint(bits.Len64(maxLen) - 1) // period ≤ 2^c
	need := m.Bits - c                // d(x) ≡ 0 mod 2^need; need ≥ 1 here
	alpha := m.Alpha()
	beta := m.Beta()
	if alpha >= need {
		// d(x) = 2^alpha·(…) + B; need ≤ alpha, so condition is on B alone.
		if beta >= need {
			return Progression{Start: 0, Step: 1, Count: 1 << m.Bits}, true
		}
		return Progression{}, false
	}
	// Solve 2^alpha·u·x ≡ −B (mod 2^need), u odd.
	if beta < alpha {
		return Progression{}, false // v2 of LHS ≥ alpha > beta: no solution
	}
	u := (m.A - 1) >> alpha
	bPrime := (m.B & m.mask()) >> alpha
	mod := need - alpha // solve u·x ≡ −B′ (mod 2^mod)
	if mod > m.Bits {
		return Progression{}, false
	}
	uInv := modInversePow2(u, mod)
	x0 := (-bPrime * uInv) & lowMask(mod)
	step := uint32(1) << mod
	count := uint64(1) << (m.Bits - mod)
	return Progression{Start: x0, Step: step, Count: count}, true
}

// lowMask returns a mask of the low n bits (n ≤ 32).
func lowMask(n uint) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << n) - 1
}

// modInversePow2 returns the inverse of odd u modulo 2^n via Newton
// iteration (each step doubles the bits of precision).
func modInversePow2(u uint32, n uint) uint32 {
	if u&1 == 0 {
		panic("cycle: inverse of even value modulo power of two")
	}
	inv := u // correct to 3 bits for odd u? use standard trick below
	// Seed correct modulo 2^3: inv = u*(2−u·u)… simpler: start with inv ≡ u
	// which satisfies u·inv ≡ 1 (mod 2^1) for odd u, then Newton.
	for b := uint(1); b < n; b *= 2 {
		inv *= 2 - u*inv
	}
	return inv & lowMask(n)
}
