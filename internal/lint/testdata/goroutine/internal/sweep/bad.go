package sweep

import "sync"

func tally(xs []int) map[int]int {
	counts := make(map[int]int)
	var wg sync.WaitGroup
	for idx := 0; idx < len(xs); idx++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i]++         // want "write to shared map"
			delete(counts, i+1) // want "delete from shared map"
		}(idx)
	}
	wg.Wait()
	return counts
}
