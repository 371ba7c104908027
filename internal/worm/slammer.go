package worm

import (
	"repro/internal/cycle"
	"repro/internal/ipv4"
	"repro/internal/rng"
)

// Slammer PRNG parameters, from the paper's Section 4.2.3 analysis of the
// disassembled worm.
const (
	// SlammerMultiplier is the LCG multiplier a in s' = a·s + b (mod 2^32),
	// the same 214013 used by MSVCRT.
	SlammerMultiplier = 214013

	// SlammerORConstant is the increment the worm author apparently
	// intended: 0xffd9613c, "a commonly used value of b in many LCGs". An
	// OR instruction used where XOR was needed corrupts it with whatever
	// the ebx register held — the sqlsort.dll import address table entry.
	SlammerORConstant = 0xffd9613c
)

// SqlsortIATs are the three widely reported sqlsort.dll import-address-table
// values left in ebx, one per DLL version.
var SqlsortIATs = [3]uint32{0x77f8313c, 0x77e89b18, 0x77ea094c}

// SlammerIncrements returns the three effective LCG increments, derived as
// the paper derives them: the leftover ebx values XORed with the OR
// constant. (Expected values: 0x88215000, 0x8831fa24, 0x88336870 — the
// middle one is printed in the paper.) All three are divisible by 4, which
// by the cycle analysis dooms the generator to 64 cycles with lengths
// 1 … 2^30 instead of a single full-period cycle.
func SlammerIncrements() [3]uint32 {
	var out [3]uint32
	for i, iat := range SqlsortIATs {
		out[i] = SlammerORConstant ^ iat
	}
	return out
}

// SlammerMap returns the cycle-analysis view of the Slammer LCG for the
// given DLL variant (0, 1 or 2).
func SlammerMap(variant int) cycle.Map {
	return cycle.MustNewMap(SlammerMultiplier, SlammerIncrements()[variant], 32)
}

// Slammer generates targets exactly as an infected host does: the full
// 32-bit LCG state is the next target address. A host whose seed lands on a
// short cycle probes the same handful of addresses forever — the paper's
// "very much like a targeted denial of service attack".
type Slammer struct {
	lcg *rng.LCG32
}

// NewSlammer returns a generator for the given DLL variant seeded with the
// host's initial 32-bit state.
func NewSlammer(variant int, seed uint32) *Slammer {
	b := SlammerIncrements()[variant]
	return &Slammer{lcg: rng.NewLCG32(SlammerMultiplier, b, seed)}
}

// Next advances the LCG and returns its state as the target.
func (s *Slammer) Next() ipv4.Addr { return ipv4.Addr(s.lcg.Next()) }

// SlammerFactory builds Slammer scanners. Variant selects the sqlsort.dll
// version; per-host seeds are folded to the 32-bit state space.
type SlammerFactory struct {
	Variant int
}

// New implements Factory.
func (f SlammerFactory) New(_ ipv4.Addr, seed uint64) TargetGenerator {
	return NewSlammer(f.Variant, uint32(rng.Mix64(seed)))
}

// Name implements Factory.
func (f SlammerFactory) Name() string { return "slammer" }

// SlammerIntended is the ablation generator: same multiplier but with a
// proper odd increment, giving a single full-period cycle. Comparing its
// propagation to Slammer's isolates the damage done by the corrupted
// increment.
func SlammerIntended(seed uint32) *Slammer {
	return &Slammer{lcg: rng.NewLCG32(SlammerMultiplier, rng.MSVCRTIncrement, seed)}
}

// SlammerIntendedFactory builds full-period ablation scanners.
type SlammerIntendedFactory struct{}

// New implements Factory.
func (SlammerIntendedFactory) New(_ ipv4.Addr, seed uint64) TargetGenerator {
	return SlammerIntended(uint32(rng.Mix64(seed)))
}

// Name implements Factory.
func (SlammerIntendedFactory) Name() string { return "slammer-intended" }
