// Package main is reached by no determinism root; the wall clock is
// allowed here.
package main

import "time"

var started = time.Now()

func main() { _ = started }
