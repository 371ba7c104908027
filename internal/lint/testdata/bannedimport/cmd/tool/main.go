// Package main is reached by no determinism root; its randomness is
// outside the contract.
package main

import "math/rand"

func main() { _ = rand.Int() }
