// Package epidemic provides the closed-form SI ("simple epidemic") model
// the paper uses as its uniform-propagation baseline, plus utilities to fit
// the model to simulated outbreaks. It exists both as a user-facing
// analytic tool and as an independent oracle for validating the simulation
// engine: a uniform scanner's simulated epidemic must follow the logistic
// solution.
//
// With N vulnerable hosts inside a scanned space of Ω addresses, each
// infected host probing at r probes/second, the classic model is
//
//	dI/dt = β·I·(1 − I/N),   β = r·N/Ω
//
// whose solution is the logistic curve
//
//	I(t) = N / (1 + (N/I₀ − 1)·e^(−β·t)).
package epidemic

import (
	"errors"
	"fmt"
	"math"
)

// SI is a configured simple-epidemic model.
type SI struct {
	// N is the vulnerable population; I0 the initially infected count.
	N, I0 float64
	// Beta is the per-host infection pressure (1/seconds).
	Beta float64
}

// NewSI builds the model from worm parameters: scanRate (probes/s/host),
// population size, initially infected, and the size of the scanned address
// space (2^32 for uniform IPv4 scanning; the hit-list size for hit-list
// worms — which is why small hit-lists are so much faster).
func NewSI(scanRate float64, population, seeds int, space float64) (SI, error) {
	if scanRate <= 0 || population <= 0 || seeds <= 0 || space <= 0 {
		return SI{}, errors.New("epidemic: all parameters must be positive")
	}
	if seeds > population {
		return SI{}, errors.New("epidemic: more seeds than population")
	}
	return SI{
		N:    float64(population),
		I0:   float64(seeds),
		Beta: scanRate * float64(population) / space,
	}, nil
}

// Infected returns I(t).
func (m SI) Infected(t float64) float64 {
	if m.I0 >= m.N {
		return m.N
	}
	c := (m.N/m.I0 - 1) * math.Exp(-m.Beta*t)
	return m.N / (1 + c)
}

// TimeToFraction returns the time at which the infected fraction reaches f.
func (m SI) TimeToFraction(f float64) (float64, error) {
	if f <= 0 || f >= 1 {
		return 0, errors.New("epidemic: fraction must be in (0,1)")
	}
	target := f * m.N
	if target <= m.I0 {
		return 0, nil
	}
	// Invert the logistic: t = ln((N/I0 −1)·f/(1−f)) / β.
	return math.Log((m.N/m.I0-1)*f/(1-f)) / m.Beta, nil
}

// FitBeta estimates β from an observed epidemic curve by least-squares
// regression of the log-odds logit(I/N) against time, using only points
// strictly between 1% and 99% infected (where the logit is informative).
// It returns the estimate and the number of points used.
//
// Inputs are validated: the population must be positive and finite, and
// every time/infected pair must be finite. Without these checks a NaN or
// Inf anywhere in the series (or a zero population) poisons the regression
// sums and the function returns a garbage β with a nil error — the failure
// mode the xcheck analytic oracle exists to catch.
func FitBeta(times, infected []float64, population float64) (float64, int, error) {
	if len(times) != len(infected) {
		return 0, 0, errors.New("epidemic: series length mismatch")
	}
	if math.IsNaN(population) || math.IsInf(population, 0) || population <= 0 {
		return 0, 0, fmt.Errorf("epidemic: population %v must be positive and finite", population)
	}
	for i := range times {
		if math.IsNaN(times[i]) || math.IsInf(times[i], 0) {
			return 0, 0, fmt.Errorf("epidemic: time[%d] = %v is not finite", i, times[i])
		}
		if math.IsNaN(infected[i]) || math.IsInf(infected[i], 0) {
			return 0, 0, fmt.Errorf("epidemic: infected[%d] = %v is not finite", i, infected[i])
		}
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range times {
		frac := infected[i] / population
		if frac <= 0.01 || frac >= 0.99 {
			continue
		}
		y := math.Log(frac / (1 - frac))
		sx += times[i]
		sy += y
		sxx += times[i] * times[i]
		sxy += times[i] * y
		n++
	}
	if n < 2 {
		return 0, n, errors.New("epidemic: too few informative points to fit")
	}
	den := float64(n)*sxx - sx*sx
	//lint:ignore float-eq tick times are integer-valued floats below 2^53, so den is exact and ==0 detects exact degeneracy
	if den == 0 {
		return 0, n, errors.New("epidemic: degenerate time series")
	}
	return (float64(n)*sxy - sx*sy) / den, n, nil
}
