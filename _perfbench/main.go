// Command perfbench is the repository benchmark. It runs one of four
// fixed-seed workloads through the exported APIs of the population, proxgraph,
// sim, trace, xcheck and serve packages, checks every output, and prints one
// JSON object as its last line of standard output: the end-to-end metrics of
// an untraced run, or, with --trace 1, the per-layer metrics taken from spans
// the benchmark records around its own calls into each layer, plus the
// tracing overhead.
//
// Build and run it from the repository root through run.sh, which keeps the
// Go build cache inside the checkout:
//
//	bash _perfbench/run.sh --workload codered-paper --seed 1 --seconds 15 --trace 0
//
// NOTES.md defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd lists what a user of the system sees. Every workload reports all
// of them from its untraced operations; BENCHMARK.json repeats this list.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's figures, one group per layer. A workload
// reports 0 for a layer it does not call. The bench.trace_overhead.* figures
// follow them, one per end-to-end metric (see layerMetrics).
var perLayer = []metric{
	{"population.synthesize_s", "s"},
	{"population.hosts", "count"},
	{"proxgraph.new_s", "s"},
	{"proxgraph.edges", "count"},
	{"sim.fast_setup_s", "s"},
	{"sim.fast_tick_ms", "ms"},
	{"sim.alloc_mb", "MB"},
	{"sim.graph_setup_s", "s"},
	{"sim.graph_tick_ms", "ms"},
	{"sim.graph_alloc_mb", "MB"},
	{"sim.ticks", "count"},
	{"sim.infections", "count"},
	{"sim.probes", "count"},
	{"trace.record_s", "s"},
	{"trace.events", "count"},
	{"trace.ndjson_s", "s"},
	{"trace.ndjson_bytes", "bytes"},
	{"xcheck.run_p50_ms", "ms"},
	{"xcheck.run_p95_ms", "ms"},
	{"sim.exact_probes_per_s", "1/s"},
	{"serve.submit_accepted_ms", "ms"},
	{"serve.submit_cached_ms", "ms"},
	{"serve.result_wait_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.result_bytes", "bytes"},
	{"serve.accepted", "count"},
	{"serve.cached", "count"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"host.calib_ms", "ms"},
}

// overheadPrefix names the traced-minus-untraced figure of an end-to-end
// metric, as a share of the untraced value.
const overheadPrefix = "bench.trace_overhead."

// layerMetrics is every figure a traced run prints.
func layerMetrics() []metric {
	out := slices.Clone(perLayer)
	for _, m := range endToEnd {
		out = append(out, metric{overheadPrefix + m.name, "ratio"})
	}
	return out
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"codered-paper": func(o options) (*report, error) { return runFast(coderedPaper(o.toy), o) },
	"internet-10m":  func(o options) (*report, error) { return runFast(internet10M(o.toy), o) },
	"graph-1m":      func(o options) (*report, error) { return runFast(graph1M(o.toy), o) },
	"serve-mix":     runServeMix,
}

// options is one run's settings.
type options struct {
	seed     uint64
	budget   time.Duration // measure until this much time has passed
	toy      bool          // self-test scale: the same code paths on tiny inputs
	corrupt  bool          // self-test: corrupt the first output, which must count as failed
	stateDir string        // scratch space for server state, inside the checkout
	log      io.Writer     // human-readable lines: expanded seeds, failures
	spans    *spans        // nil in an untraced run
	host     *hostScale    // times every measured operation
}

// variants lists the span recorders operation i runs under: nil alone in an
// untraced run, or nil and the recorder in a traced one, in an order that
// alternates with i so that neither side always runs first.
func (o *options) variants(i int) []*spans {
	switch {
	case o.spans == nil:
		return []*spans{nil}
	case i%2 == 0:
		return []*spans{nil, o.spans}
	default:
		return []*spans{o.spans, nil}
	}
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	plain, traced     map[string]float64 // end-to-end figures per side
	layer             map[string]float64 // per-layer figures (traced runs)
	log               io.Writer
}

func newReport(log io.Writer) *report {
	return &report{
		plain:  map[string]float64{},
		traced: map[string]float64{},
		layer:  map[string]float64{},
		log:    log,
	}
}

// op counts one attempted operation, failed when err is not nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAILED: %v\n", err)
	}
}

// samples keeps one figure's measurements apart by whether the operation
// ran traced.
type samples struct{ plain, traced []float64 }

func (s *samples) add(sp *spans, v float64) {
	if sp == nil {
		s.plain = append(s.plain, v)
	} else {
		s.traced = append(s.traced, v)
	}
}

// side returns the measurements of one side.
func (s *samples) side(traced bool) []float64 {
	if traced {
		return s.traced
	}
	return s.plain
}

// setEndToEnd fills both sides' end-to-end figures from setup times (s),
// operation latencies (ms) and the operations' total busy time (s), which
// ops_per_s divides the operation count by.
func (r *report) setEndToEnd(setup, latency, busy samples) {
	rss := peakRSSMB()
	for _, traced := range []bool{false, true} {
		lat := latency.side(traced)
		if len(lat) == 0 {
			continue
		}
		m := r.plain
		if traced {
			m = r.traced
		}
		m["setup_s"] = median(setup.side(traced))
		m["op_p50_ms"] = median(lat)
		m["op_p95_ms"] = percentile(lat, 0.95)
		m["ops_per_s"] = float64(len(lat)) / sum(busy.side(traced))
		m["peak_rss_mb"] = rss
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: codered-paper, internet-10m, graph-1m or serve-mix")
	seed := flag.Uint64("seed", 0, "workload seed; expands into the run's sim seeds or request order")
	seconds := flag.Int("seconds", 15, "time to spend measuring, in seconds (at least one full pass runs)")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traceFlag, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// stateDir holds server state and span dumps, inside the checkout.
const stateDir = ".bench_build"

// run executes one workload and prints its result line to out.
func run(workload string, seed uint64, seconds, traceFlag int, out io.Writer) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	o := options{
		seed:     seed,
		budget:   time.Duration(seconds) * time.Second,
		stateDir: stateDir,
		log:      out,
	}
	if traceFlag == 1 {
		o.spans = newSpans()
	}
	res, err := measure(workload, runner, o)
	if err != nil {
		return err
	}
	if o.spans != nil {
		path := filepath.Join(stateDir, "spans", fmt.Sprintf("%s-seed%d.ndjson", workload, seed))
		if err := o.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "perfbench: spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs the calibration kernel and the workload and assembles the
// metrics the run prints.
func measure(workload string, runner func(options) (*report, error), o options) (*result, error) {
	o.host = newHostScale(o.spans)
	rep, err := runner(o)
	if err != nil {
		return nil, err
	}
	calib := o.host.calibMS()
	fmt.Fprintf(o.log, "perfbench: workload=%s seed=%d traced=%t host.calib_ms=%.4g (times below are scaled to %g ms)\n",
		workload, o.seed, o.spans != nil, calib, calibRefMS)
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range endToEnd {
		fmt.Fprintf(o.log, "perfbench: %s=%.6g %s\n", m.name, rep.plain[m.name], m.unit)
	}
	if o.spans == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{rep.plain[m.name], m.unit}
		}
		return res, nil
	}
	rep.layer["host.calib_ms"] = calib
	// Spans are the only memory tracing adds, so the peak-RSS overhead is
	// their buffer as a share of the peak.
	rep.traced["peak_rss_mb"] = rep.plain["peak_rss_mb"] + o.spans.bytes()/(1<<20)
	for _, m := range endToEnd {
		if base := rep.plain[m.name]; base != 0 {
			rep.layer[overheadPrefix+m.name] = rep.traced[m.name]/base - 1
		}
	}
	for _, m := range layerMetrics() {
		res.Metrics[m.name] = value{rep.layer[m.name], m.unit}
	}
	return res, nil
}

// calibRefMS is what the calibration kernel takes on the reference host.
const calibRefMS = 25.0

// hostScale puts timings taken on a host whose speed drifts on a scale of
// seconds onto one scale. Between measured operations it times a fixed
// CPU-only kernel — a splitmix64 fill of 2¹⁸ words followed by a sort,
// sharing no code with the repository so no change to it can move the
// kernel — and scales each operation's wall time by calibRefMS over the
// mean of the kernel times just before and just after it.
type hostScale struct {
	sp   *spans
	buf  []uint64
	prev float64   // the latest kernel time, ms
	all  []float64 // every kernel time, ms
}

func newHostScale(sp *spans) *hostScale {
	h := &hostScale{sp: sp, buf: make([]uint64, 1<<18)}
	h.prev = h.kernel()
	return h
}

// kernel runs the calibration kernel once and returns its time in ms.
func (h *hostScale) kernel() float64 {
	id := h.sp.begin("host.calib", 0)
	t := time.Now()
	x := uint64(0x5eed)
	for i := range h.buf {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h.buf[i] = z ^ z>>31
	}
	slices.Sort(h.buf)
	ms := time.Since(t).Seconds() * 1e3
	h.sp.end(id, int64(len(h.buf)))
	h.all = append(h.all, ms)
	return ms
}

// checkpointEvery is the shortest segment a long operation is cut into.
const checkpointEvery = 500 * time.Millisecond

// around runs f, which times itself, and returns the factor that turns its
// wall times into reference-host times.
func (h *hostScale) around(f func()) float64 {
	f()
	k := h.kernel()
	factor := calibRefMS / ((h.prev + k) / 2)
	h.prev = k
	return factor
}

// time runs f and returns its reference-host time in seconds. f receives a
// checkpoint function that a long operation calls often (the fast driver's
// OnTick): once checkpointEvery has passed since the current segment began,
// it runs the kernel and scales the segment on its own, so an operation that
// outlasts the host's changes of speed is scaled piecewise. The kernel's own
// time is not counted.
func (h *hostScale) time(f func(checkpoint func())) float64 {
	scaled := 0.0
	start := time.Now()
	closeSegment := func() {
		seg := time.Since(start).Seconds()
		k := h.kernel()
		scaled += seg * calibRefMS / ((h.prev + k) / 2)
		h.prev = k
		start = time.Now()
	}
	f(func() {
		if time.Since(start) >= checkpointEvery {
			closeSegment()
		}
	})
	closeSegment()
	return scaled
}

// calibMS is the median kernel time of the run.
func (h *hostScale) calibMS() float64 { return median(h.all) }

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocatedMB is the process's cumulative heap allocation.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs, or 0 when xs is
// empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// spans records wall-clock spans around the benchmark's calls into each
// layer, kept in memory and written out when the run ends. A nil *spans
// records nothing, so untraced operations pay one nil check per call.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

// span is one recorded call: its name, the span that caused it (0 for none),
// its interval in ms since the run started, and a count of the work it did.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	N       int64   `json:"n,omitempty"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) now() float64 { return time.Since(s.t0).Seconds() * 1e3 }

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	start := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, StartMS: start})
	return len(s.list)
}

// end closes span id, recording n units of work.
func (s *spans) end(id int, n int64) {
	if s == nil {
		return
	}
	end := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].EndMS = end
	s.list[id-1].N = n
}

// bytes is the span buffer's size.
func (s *spans) bytes() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(cap(s.list)) * float64(unsafe.Sizeof(span{}))
}

// write dumps the spans as NDJSON to path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	return f.Close()
}
