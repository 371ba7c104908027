package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probes_total", "outcome", "delivered")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name+labels (any order) resolves to the same series.
	if r.Counter("probes_total", "outcome", "delivered") != c {
		t.Fatal("re-lookup returned a different counter")
	}
	g := r.Gauge("infected")
	g.Set(10)
	g.Add(2.5)
	if got := g.Value(); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestNilHandlesAndRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤10: {2}; ≤100: {50}; +Inf: {1000}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-1053.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1053.5", h.Sum())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as gauge after counter must panic")
		}
	}()
	r.Gauge("m")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_probes_total", "outcome", "delivered").Add(7)
	r.Counter("sim_probes_total", "outcome", "filtered").Add(3)
	r.Gauge("sim_infected_hosts").Set(25)
	h := r.Histogram("tick_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sim_probes_total counter\n",
		`sim_probes_total{outcome="delivered"} 7` + "\n",
		`sim_probes_total{outcome="filtered"} 3` + "\n",
		"# TYPE sim_infected_hosts gauge\nsim_infected_hosts 25\n",
		"# TYPE tick_seconds histogram\n",
		`tick_seconds_bucket{le="1"} 1` + "\n",
		`tick_seconds_bucket{le="10"} 1` + "\n",
		`tick_seconds_bucket{le="+Inf"} 2` + "\n",
		"tick_seconds_sum 20.5\n",
		"tick_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Two expositions of a quiescent registry are byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "v").Add(5)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{2}).Observe(1)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Series string `json:"series"`
			Value  uint64 `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Series string  `json:"series"`
			Value  float64 `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Series  string    `json:"series"`
			Count   uint64    `json:"count"`
			Sum     float64   `json:"sum"`
			Bounds  []float64 `json:"bounds"`
			Buckets []uint64  `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Series != `c{k="v"}` || snap.Counters[0].Value != 5 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Series != "g" || math.Abs(snap.Gauges[0].Value-1.5) > 1e-12 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Series != "h" || hs.Count != 1 || len(hs.Buckets) != 2 || hs.Buckets[0] != 1 {
		t.Errorf("histograms = %+v", snap.Histograms)
	}
}

// TestExpositionBytesPinned pins both exposition formats byte for byte: a
// fixed registry must dump exactly these bytes, in registry-sorted series
// order, on every platform and Go version. A diff here means the dump
// format changed — bump deliberately, never accidentally.
func TestExpositionBytesPinned(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "code", "200").Add(3)
	r.Counter("requests_total", "code", "500").Add(1)
	r.Gauge("temperature").Set(0.25)
	h := r.Histogram("latency_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20.5)

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# TYPE latency_seconds histogram
latency_seconds_bucket{le="1"} 1
latency_seconds_bucket{le="10"} 1
latency_seconds_bucket{le="+Inf"} 2
latency_seconds_sum 21
latency_seconds_count 2
# TYPE requests_total counter
requests_total{code="200"} 3
requests_total{code="500"} 1
# TYPE temperature gauge
temperature 0.25
`
	if prom.String() != wantProm {
		t.Errorf("Prometheus exposition drifted:\ngot:\n%s\nwant:\n%s", prom.String(), wantProm)
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "counters": [
    {
      "series": "requests_total{code=\"200\"}",
      "value": 3
    },
    {
      "series": "requests_total{code=\"500\"}",
      "value": 1
    }
  ],
  "gauges": [
    {
      "series": "temperature",
      "value": 0.25
    }
  ],
  "histograms": [
    {
      "series": "latency_seconds",
      "count": 2,
      "sum": 21,
      "bounds": [
        1,
        10
      ],
      "buckets": [
        1,
        0,
        1
      ]
    }
  ]
}
`
	if js.String() != wantJSON {
		t.Errorf("JSON exposition drifted:\ngot:\n%s\nwant:\n%s", js.String(), wantJSON)
	}

	// An empty registry still dumps a complete, stable skeleton.
	var empty strings.Builder
	if err := NewRegistry().WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}\n"; empty.String() != want {
		t.Errorf("empty JSON snapshot drifted:\ngot %q want %q", empty.String(), want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total")
			g := r.Gauge("level")
			h := r.Histogram("obs", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); math.Abs(got-workers*perWorker) > 1e-6 {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("obs", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentFirstResolutionSharesOneHandle(t *testing.T) {
	// Regression: handle creation used to happen after lookup() released
	// the registry mutex, so two goroutines resolving a fresh series could
	// each build a handle and one's increments vanished from exposition.
	// Every worker resolves the same three fresh series and records one
	// update; the registry totals must account for all of them.
	const workers = 8
	r := NewRegistry()
	ctrs := make([]*Counter, workers)
	gauges := make([]*Gauge, workers)
	hists := make([]*Histogram, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ctrs[w] = r.Counter("fresh_total", "w", "shared")
			gauges[w] = r.Gauge("fresh_level")
			hists[w] = r.Histogram("fresh_obs", []float64{1})
			ctrs[w].Inc()
			gauges[w].Add(1)
			hists[w].Observe(0.5)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ctrs[w] != ctrs[0] || gauges[w] != gauges[0] || hists[w] != hists[0] {
			t.Fatalf("worker %d got distinct handles for the same series", w)
		}
	}
	if got := r.Counter("fresh_total", "w", "shared").Value(); got != workers {
		t.Errorf("counter = %d, want %d (updates lost to a duplicate handle)", got, workers)
	}
	if got := r.Histogram("fresh_obs", nil).Count(); got != workers {
		t.Errorf("histogram count = %d, want %d", got, workers)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 10, 4)
	wantExp := []float64{1, 10, 100, 1000}
	for i := range wantExp {
		if math.Abs(exp[i]-wantExp[i]) > 1e-9 {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

// TestExpBucketsEdges covers the degenerate shapes callers actually build:
// a single bucket, and non-integer growth factors whose bounds must stay
// strictly ascending (equal adjacent bounds would make a zero-width
// bucket the histogram could never fill).
func TestExpBucketsEdges(t *testing.T) {
	if got := ExpBuckets(5, 2, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("single bucket = %v, want [5]", got)
	}

	frac := ExpBuckets(0.1, 1.5, 8)
	if len(frac) != 8 || frac[0] != 0.1 {
		t.Fatalf("fractional growth = %v", frac)
	}
	for i := 1; i < len(frac); i++ {
		if frac[i] <= frac[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %v", i, frac)
		}
		if r := frac[i] / frac[i-1]; math.Abs(r-1.5) > 1e-12 {
			t.Fatalf("growth ratio %v at %d, want 1.5", r, i)
		}
	}
	// A factor barely above 1 must still grow every step.
	tiny := ExpBuckets(1, 1.0000001, 4)
	for i := 1; i < len(tiny); i++ {
		if tiny[i] <= tiny[i-1] {
			t.Fatalf("tiny factor collapsed at %d: %v", i, tiny)
		}
	}

	for name, fn := range map[string]func(){
		"zero start":     func() { ExpBuckets(0, 2, 3) },
		"factor one":     func() { ExpBuckets(1, 1, 3) },
		"no buckets":     func() { ExpBuckets(1, 2, 0) },
		"negative start": func() { ExpBuckets(-1, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
