package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestTracerRecordsSimTime(t *testing.T) {
	clock := &SimClock{}
	reg := NewRegistry()
	tr := NewTracer(clock, reg)

	clock.Set(10)
	sp := tr.Start("experiment/fig5c")
	clock.Set(250)
	sp.End()

	h := reg.Histogram("obs_span_seconds", nil, "name", "experiment/fig5c")
	if h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
	if d := h.Sum(); d != 240 {
		t.Fatalf("span duration = %v, want 240", d)
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	tr.Start("x").End() // must not panic
	// A tracer with no registry still works.
	NewTracer(nil, nil).Start("x").End()
	// A tracer with no clock is pinned at 0.
	reg := NewRegistry()
	NewTracer(nil, reg).Start("y").End()
	if h := reg.Histogram("obs_span_seconds", nil, "name", "y"); h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("clockless span: count %d, sum %v; want 1, 0", h.Count(), h.Sum())
	}
}

// TestTracerConcurrentSpans hammers Start/End from many goroutines against
// a frozen SimClock: no span may be lost or torn in the span histogram. This is the guarantee that lets sweep
// workers share one CLI tracer without coordination.
func TestTracerConcurrentSpans(t *testing.T) {
	clock := &SimClock{}
	clock.Set(42)
	reg := NewRegistry()
	tr := NewTracer(clock, reg)

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("worker/%d", w)
			for i := 0; i < perWorker; i++ {
				sp := tr.Start(name)
				sp.End()
			}
		}()
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("worker/%d", w)
		h := reg.Histogram("obs_span_seconds", nil, "name", name)
		if h.Count() != perWorker {
			t.Errorf("%s: %d spans, want %d", name, h.Count(), perWorker)
		}
		// The clock is frozen, so every span lasts exactly 0; any other
		// total means a torn read.
		if h.Sum() != 0 {
			t.Errorf("%s: span durations sum to %v, want 0", name, h.Sum())
		}
	}
}
