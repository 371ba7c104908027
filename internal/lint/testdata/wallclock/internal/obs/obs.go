// Package obs mirrors the real internal/obs: a root reaches it, so a
// wall-clock read here is a finding, while the injected clock is not.
package obs

import "time"

// Clock is the injected-time seam the real internal/obs uses: the
// simulation tick loop advances it, so spans never need the time
// package at all.
type Clock interface{ Seconds() float64 }

type span struct {
	clock Clock
	start float64
}

func startSpan(c Clock) span { return span{clock: c, start: c.Seconds()} }

func (s span) elapsed() float64 { return s.clock.Seconds() - s.start }

// Elapsed is reached from sim.RunExact.
func Elapsed() float64 {
	start := time.Now()                // want "wall-clock dependence via time.Now"
	return time.Since(start).Seconds() // want "wall-clock dependence via time.Since"
}
