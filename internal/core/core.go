// Package core is the hotspot-analysis library: the paper's conceptual
// contribution — defining and quantifying hotspots, deviations from uniform
// malware propagation — turned into an API.
//
// The inputs are observation distributions: probe or unique-source counts
// per bucket (per destination /24 at a darknet, per sensor in a fleet). The
// package quantifies non-uniformity (chi-square against uniform, KL
// divergence, Gini coefficient, orders-of-magnitude spread) and locates
// hotspot buckets.
package core

import (
	"math"
	"sort"
)

// ChiSquareUniform returns the chi-square statistic of counts against the
// uniform distribution and the degrees of freedom. A worm with no hotspots
// produces a statistic near df; hotspots inflate it by orders of magnitude.
func ChiSquareUniform(counts []uint64) (stat float64, df int) {
	if len(counts) < 2 {
		return 0, 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, len(counts) - 1
	}
	expected := float64(total) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat, len(counts) - 1
}

// KLDivergenceFromUniform returns the Kullback–Leibler divergence (in bits)
// of the empirical bucket distribution from uniform. 0 means perfectly
// uniform; log2(len(counts)) means all mass on one bucket.
func KLDivergenceFromUniform(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) < 2 {
		return 0
	}
	u := 1.0 / float64(len(counts))
	var kl float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		kl += p * math.Log2(p/u)
	}
	return kl
}

// Gini returns the Gini coefficient of the counts: 0 for perfect equality,
// approaching 1 when a few buckets hold all observations.
func Gini(counts []uint64) float64 {
	n := len(counts)
	if n < 2 {
		return 0
	}
	sorted := make([]float64, n)
	var total float64
	for i, c := range counts {
		sorted[i] = float64(c)
		total += float64(c)
	}
	//lint:ignore float-eq total is an exact sum of whole uint64 counts, so zero means literally no observations
	if total == 0 {
		return 0
	}
	sort.Float64s(sorted)
	var weighted float64
	for i, v := range sorted {
		weighted += float64(i+1) * v
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// SpreadOrders returns the orders-of-magnitude spread between the largest
// and smallest positive counts — the "orders-of-magnitude different amounts
// of traffic" observation that motivated the paper. Buckets with zero
// observations are reported separately by Analyze.
func SpreadOrders(counts []uint64) float64 {
	var minPos, maxPos uint64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		if minPos == 0 || c < minPos {
			minPos = c
		}
		if c > maxPos {
			maxPos = c
		}
	}
	if minPos == 0 {
		return 0
	}
	return math.Log10(float64(maxPos) / float64(minPos))
}

// Hotspot identifies one bucket with anomalously high observations.
type Hotspot struct {
	// Bucket is the index into the analyzed distribution.
	Bucket int
	// Count is the bucket's observation count.
	Count uint64
	// Ratio is Count over the median positive count.
	Ratio float64
}

// FindHotspots returns buckets whose counts exceed ratio× the median
// positive count, strongest first. ratio values around 5–10 isolate the
// spikes visible in the paper's figures.
func FindHotspots(counts []uint64, ratio float64) []Hotspot {
	med := medianPositive(counts)
	if med <= 0 {
		return nil
	}
	var out []Hotspot
	for i, c := range counts {
		if r := float64(c) / med; r >= ratio {
			out = append(out, Hotspot{Bucket: i, Count: c, Ratio: r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

func medianPositive(counts []uint64) float64 {
	var pos []uint64
	for _, c := range counts {
		if c > 0 {
			pos = append(pos, c)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	mid := len(pos) / 2
	if len(pos)%2 == 1 {
		return float64(pos[mid])
	}
	return (float64(pos[mid-1]) + float64(pos[mid])) / 2
}

// Report is the full hotspot analysis of one observation distribution.
type Report struct {
	// Buckets is the number of buckets analyzed.
	Buckets int
	// Total is the total observation count.
	Total uint64
	// ZeroBuckets counts buckets with no observations at all (total
	// blindness — e.g. the M block during Slammer).
	ZeroBuckets int
	// ChiSquare is the statistic against uniform; DF its degrees of
	// freedom.
	ChiSquare float64
	DF        int
	// KLBits is the KL divergence from uniform in bits.
	KLBits float64
	// Gini is the Gini coefficient.
	Gini float64
	// SpreadOrders is the log10 max/min spread over positive buckets.
	SpreadOrders float64
	// Hotspots lists buckets ≥ 5× the positive median.
	Hotspots []Hotspot
}

// IsUniform reports whether the distribution is statistically consistent
// with uniform propagation at roughly the 0.1% level (chi-square compared
// to a normal approximation of its critical value).
func (r Report) IsUniform() bool {
	if r.DF <= 0 {
		return true
	}
	// χ²_{0.999,df} ≈ df + 3.09·sqrt(2df) for large df.
	critical := float64(r.DF) + 3.09*math.Sqrt(2*float64(r.DF))
	return r.ChiSquare <= critical
}

// Analyze computes the full report for one distribution.
func Analyze(counts []uint64) Report {
	rep := Report{Buckets: len(counts)}
	for _, c := range counts {
		rep.Total += c
		if c == 0 {
			rep.ZeroBuckets++
		}
	}
	rep.ChiSquare, rep.DF = ChiSquareUniform(counts)
	rep.KLBits = KLDivergenceFromUniform(counts)
	rep.Gini = Gini(counts)
	rep.SpreadOrders = SpreadOrders(counts)
	rep.Hotspots = FindHotspots(counts, 5)
	return rep
}
