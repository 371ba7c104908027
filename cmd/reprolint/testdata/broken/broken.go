// Package broken does not type-check; reprolint reports the type error
// as a finding and exits 1.
package broken

func half(n int) int { return n / undefinedDivisor }
