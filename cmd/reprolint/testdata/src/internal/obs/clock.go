// Package obs is a clean fixture for the injected-clock idiom. The
// fixture go.mod above testdata/src makes this package's module-relative
// path internal/obs, the real telemetry package's path, so linting it
// with the full rule set proves the pattern internal/obs uses needs no
// suppressions: simulated time arrives through a Clock value and the time
// package is never imported.
package obs

// Clock is simulated time injected by the tick loop.
type Clock interface{ Seconds() float64 }

// SimClock is advanced by the simulation driver; Seconds never touches
// the wall clock.
type SimClock struct{ t float64 }

// Set records the current simulated time in seconds.
func (c *SimClock) Set(t float64) { c.t = t }

// Seconds returns the last simulated time Set recorded.
func (c *SimClock) Seconds() float64 { return c.t }
