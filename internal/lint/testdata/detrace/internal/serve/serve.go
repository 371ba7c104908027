package serve

import (
	"math/rand/v2"
	"time"
)

// OneShot is a determinism-contract root in this fixture tree, and no
// other root reaches it: its two sources are reported only while
// DeTraceRoots names it.
func OneShot(body []byte) []byte {
	return append(encode(body), tag())
}

func encode(body []byte) []byte {
	stamp := time.Now().Unix() // want "wall-clock dependence via time.Now; taints determinism root internal/serve.OneShot (internal/serve.OneShot → internal/serve.encode)"
	return append(body, byte(stamp))
}

func tag() byte {
	return byte(rand.IntN(256)) // want "unseeded randomness from math/rand/v2.IntN; taints determinism root internal/serve.OneShot (internal/serve.OneShot → internal/serve.tag)"
}
