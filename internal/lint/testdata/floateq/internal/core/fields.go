package core

type point struct{ x, y float64 }

func same(p, q point, xs []float64, i int) bool {
	if p.x == q.x { // want "floating-point == comparison"
		return true
	}
	return xs[i] != xs[0] // want "floating-point != comparison"
}
