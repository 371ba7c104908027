package sweep

import "sync"

// fill writes to a map the caller passed in, from several goroutines.
func fill(counts map[int]int, xs []int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[x] = x // want "write to shared map"
		}()
	}
	wg.Wait()
}
