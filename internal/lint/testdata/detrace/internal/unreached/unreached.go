package unreached

import "time"

// No root imports this package, so its initialization is outside the
// contract too.
var bootTime = time.Now()

func init() { bootTime = time.Now() }

// Orphan is not reachable from any determinism root, so its wall-clock
// read is outside the contract and must not be reported.
func Orphan() int64 {
	return time.Now().UnixNano()
}
