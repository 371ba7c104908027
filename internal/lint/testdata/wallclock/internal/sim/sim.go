package sim

import (
	"time"

	"fixture/internal/obs"
)

// Package initialization runs before the roots, so package-level
// initializers and init functions of a root's package are sources.
var (
	started = time.Now() // want "wall-clock dependence via time.Now; package-level initializer in internal/sim"
	base    int64
)

func init() {
	base = time.Now().Unix() // want "taints determinism root internal/sim.init (internal/sim.init)"
}

// RunExact is a determinism-contract root in this fixture tree: every
// wall-clock function it reaches, in any package, is a source.
func RunExact(seed uint64) int {
	return int(seed) + int(base) + tick() + int(obs.Elapsed())
}

func tick() int {
	epoch := time.Unix(0, 0)
	time.Sleep(time.Millisecond)                   // want "wall-clock dependence via time.Sleep"
	timer := time.NewTimer(time.Second)            // want "wall-clock dependence via time.NewTimer"
	ticker := time.NewTicker(time.Second)          // want "wall-clock dependence via time.NewTicker"
	stop := time.AfterFunc(time.Second, func() {}) // want "wall-clock dependence via time.AfterFunc"
	<-time.After(time.Millisecond)                 // want "wall-clock dependence via time.After"
	<-time.Tick(time.Millisecond)                  // want "wall-clock dependence via time.Tick"
	n := int(time.Since(epoch))                    // want "wall-clock dependence via time.Since"
	n += int(time.Until(epoch))                    // want "wall-clock dependence via time.Until"
	timer.Stop()
	ticker.Stop()
	stop.Stop()

	// Methods on time values and Duration arithmetic read no clock.
	if epoch.After(started.Add(time.Hour)) {
		n++
	}

	//lint:ignore detrace fixture proves the suppression path works
	n += time.Now().Nanosecond()
	return n
}

// debugStamp sits in a root's package, but no root calls it: its
// wall-clock read cannot change a byte a root produces.
func debugStamp() int64 {
	return time.Now().UnixNano()
}
