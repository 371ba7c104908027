// Package app does not type-check. Its one type error is the only finding:
// the float comparison below is not reported, because no analyzer runs on
// a tree the checker rejects.
package app

var count int = "three" // want "cannot use"

func same(a, b float64) bool { return a == b }
