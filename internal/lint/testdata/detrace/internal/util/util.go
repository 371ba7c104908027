package util

import (
	"sync"
	"time"
)

var cache sync.Map

// loaded is initialized before any root in a package a root imports.
var loaded = time.Now() // want "package-level initializer in internal/util"

// Helper is reached from sim.RunExact through the call graph, so its
// sources taint the root interprocedurally.
func Helper(n int) int {
	total := n + loaded.Nanosecond()
	cache.Range(func(k, v any) bool { // want "sync.Map iteration order leaks"
		total++
		return true
	})
	return total
}
