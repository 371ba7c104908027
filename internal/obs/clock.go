package obs

import (
	"math"
	"sync/atomic"
)

// Clock supplies the current time in seconds since an arbitrary origin.
// Inside internal/ packages the implementation is always simulated time
// (SimClock, advanced by the tick loop); only cmd/ binaries may inject a
// wall clock. This inversion keeps wall-clock reads out of every call
// path from a determinism root, so detrace needs no suppression in the
// telemetry layer.
type Clock interface {
	Seconds() float64
}

// SimClock is a manually advanced simulated clock. The zero value reads 0.
// Set/Seconds are atomic, so a clock shared between a tick loop and a
// concurrent metrics reader is race-free; within the single-threaded
// drivers it is simply a float cell.
type SimClock struct {
	bits atomic.Uint64
}

// Set moves the clock to t simulated seconds. Safe on a nil receiver
// (no-op), so drivers can advance an optional config clock unconditionally.
func (c *SimClock) Set(t float64) {
	if c == nil {
		return
	}
	c.bits.Store(math.Float64bits(t))
}

// Seconds returns the current simulated time (0 on a nil receiver).
func (c *SimClock) Seconds() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}
