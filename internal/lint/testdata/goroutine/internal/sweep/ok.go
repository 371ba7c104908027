package sweep

import "sync"

func tallyLocked(xs []int) map[int]int {
	counts := make(map[int]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for idx := 0; idx < len(xs); idx++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			counts[i]++
			mu.Unlock()
		}(idx)
	}
	wg.Wait()
	return counts
}

func localMap(n int, use func(map[int]int)) {
	done := make(chan struct{})
	go func() {
		local := make(map[int]int)
		local[n] = n
		use(local)
		close(done)
	}()
	<-done
}
