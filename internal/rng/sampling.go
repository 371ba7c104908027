package rng

import "math"

// Binomial returns a draw from Binomial(n, p): the number of successes in n
// independent trials of probability p.
//
// The fast simulation driver reduces "each infected host fires k probes per
// tick, each independently landing in an address range with probability p"
// to a single Binomial(k·hosts, p) draw, so this sampler sits on the hot
// path of every aggregated experiment. Three regimes are used:
//
//   - small n: direct Bernoulli counting (exact)
//   - small n·p: geometric gap-skipping (exact, O(np+1))
//   - otherwise: normal approximation with continuity correction, which is
//     statistically indistinguishable at the n·p ≥ 64 scale the simulator
//     reaches it.
func (x *Xoshiro) Binomial(n uint64, p float64) uint64 {
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - x.Binomial(n, 1-p)
	}
	np := float64(n) * p
	switch {
	case n <= 64:
		var k uint64
		for i := uint64(0); i < n; i++ {
			if x.Float64() < p {
				k++
			}
		}
		return k
	case np < 32:
		// Skip over failure runs: the gap to the next success is geometric.
		logq := math.Log1p(-p)
		var k, i uint64
		for {
			gap := uint64(math.Log(1-x.Float64())/logq) + 1
			i += gap
			if i > n {
				return k
			}
			k++
		}
	default:
		mean := np
		stddev := math.Sqrt(np * (1 - p))
		v := math.Round(x.Normal(mean, stddev))
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return uint64(v)
	}
}

// Poisson returns a draw from Poisson(lambda). Used to aggregate rare-event
// probe counts (e.g. probes landing on a /24 darknet sensor out of the full
// 2^32 space).
func (x *Xoshiro) Poisson(lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		// Knuth's product-of-uniforms method, with a squeeze on the
		// zero-event case: the first uniform u yields 0 iff u ≤ exp(-λ),
		// and u ≤ 1-λ implies that without evaluating the exponential
		// (1-λ ≤ exp(-λ) everywhere). The fast path consumes the same
		// single draw the full method would, so the squeeze changes
		// neither the distribution nor the generator's stream — it only
		// skips math.Exp for the overwhelmingly common small-λ zeros the
		// aggregated driver generates.
		prod := x.Float64()
		if prod <= 1-lambda {
			return 0
		}
		limit := math.Exp(-lambda)
		var k uint64
		for prod > limit {
			k++
			prod *= x.Float64()
		}
		return k
	}
	// Split recursively: Poisson(a+b) = Poisson(a) + Poisson(b). Using a
	// normal tail for the bulk keeps this exact enough for simulation use.
	v := math.Round(x.Normal(lambda, math.Sqrt(lambda)))
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Shuffle returns a uniformly random permutation of [0, n), drawn with
// Fisher-Yates.
func (x *Xoshiro) Shuffle(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SampleWithoutReplacement draws k distinct integers uniformly from [0, n)
// using Floyd's algorithm. The set is uniform but its order is not: with
// k == n it is always 0, 1, …, n−1. Callers that need a random order, or
// take a prefix of the result, use Shuffle.
func (x *Xoshiro) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := x.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
