// Package dirty is a reprolint smoke-test fixture with known violations.
package dirty

func save() error { return nil }

func flush() { save() }

func close(a, b float64) bool { return a == b }
