package sweep

func record(xs []int) map[int]bool {
	seen := make(map[int]bool)
	for _, x := range xs {
		go func() {
			//lint:ignore goroutine-capture fixture proves the suppression path works
			seen[x] = true
		}()
	}
	return seen
}
