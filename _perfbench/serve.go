package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/xcheck"
)

// serveClients is the number of closed-loop clients; serveWorkers and
// serveQueue configure the server as hotspotd would be.
const (
	serveClients = 2
	serveWorkers = 2
	serveQueue   = 64
)

// scenario is one distinct job of the serve-mix window with its reference
// result, computed outside the timed region.
type scenario struct {
	sc   xcheck.Scenario
	body []byte // canonical JSON, the POST body
	id   string // serve.ScenarioID of body
	ref  []byte // serve.OneShot's result bytes

	// Traced runs only: the reference-host times of the scenario's run and
	// encoding, and its probe count.
	runMS, encodeMS, probes float64
}

// servedJob is what one client request observed.
type servedJob struct {
	sc            *scenario
	status        string // admission outcome from the POST
	postMS, getMS float64
	totalMS       float64
}

// referenceChunk is how many scenarios a reference pass runs between two
// calibration kernels, so that its timing follows the host's speed.
const referenceChunk = 8

// runServeMix measures an in-process hotspotd: a fixed window of xcheck
// scenarios, submitted by closed-loop clients. Each round starts a fresh
// server on a fresh state directory and submits the window in an order the
// seed and the round number draw, with about one request in four
// resubmitting an earlier id; rounds repeat until the time budget is spent.
func runServeMix(o options) (*report, error) {
	window := 64
	if o.toy {
		window = 8
	}
	scs := make([]*scenario, window)
	for i := range scs {
		sc := xcheck.Generate(uint64(i) + 1)
		sc.Workers = 1
		body := sc.JSON()
		scs[i] = &scenario{sc: sc, body: body, id: serve.ScenarioID(body)}
	}
	fmt.Fprintf(o.log, "perfbench: scenario ids 1-%d\n", window)

	// Set-up: every scenario's reference result, outside the timed region.
	// A traced run computes them again, call by call under spans.
	rep := newReport(o.log)
	var setup samples
	d, err := referencePass(scs, o, nil, rep)
	if err != nil {
		return nil, err
	}
	setup.add(nil, d)
	if o.spans != nil {
		d, err := referencePass(scs, o, o.spans, rep)
		if err != nil {
			return nil, err
		}
		setup.add(o.spans, d)
		referenceLayers(scs, rep)
	}

	var latency, busy samples
	var layer serveLayer
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.budget; round++ {
		seq := requestOrder(o.seed, round, window)
		fmt.Fprintf(o.log, "perfbench: round %d requests scenario ids %v\n", round, seq)
		for _, sp := range o.variants(round) {
			wall, jobs, ledger, err := serveRound(scs, seq, sp, o, round, rep)
			if err != nil {
				return nil, err
			}
			busy.add(sp, wall)
			for _, j := range jobs {
				latency.add(sp, j.totalMS)
			}
			if sp != nil {
				layer.add(jobs, ledger)
			}
		}
	}
	rep.setEndToEnd(setup, latency, busy)
	if o.spans != nil {
		layer.report(rep)
	}
	return rep, nil
}

// requestOrder draws one round's request sequence: the window's ids in an
// order drawn from the seed and the round, each followed with probability
// 1/3 by a resubmission of an id requested at least two requests earlier,
// so that about one request in four resubmits and usually finds a served
// result.
func requestOrder(seed uint64, round, window int) []int {
	r := rng.NewXoshiroStream(seed, uint64(round), 0)
	var seq []int
	for _, i := range r.Shuffle(window) {
		seq = append(seq, i+1)
		if len(seq) > 2 && r.Uint64n(3) == 0 {
			seq = append(seq, seq[r.Intn(len(seq)-2)])
		}
	}
	return seq
}

// referencePass computes every scenario's result outside any server and
// returns the pass's reference-host time in seconds. Untraced (sp nil) it
// calls serve.OneShot and keeps the bytes as the reference; traced, it
// makes OneShot's two calls itself under spans and checks their bytes
// against the reference.
func referencePass(scs []*scenario, o options, sp *spans, rep *report) (float64, error) {
	total := 0.0
	for lo := 0; lo < len(scs); lo += referenceChunk {
		chunk := scs[lo:min(lo+referenceChunk, len(scs))]
		var err error
		var d time.Duration
		factor := o.host.around(func() {
			t := time.Now()
			for _, s := range chunk {
				if sp == nil {
					err = s.reference()
				} else {
					err = s.measureLayers(sp, rep)
				}
				if err != nil {
					return
				}
			}
			d = time.Since(t)
		})
		if err != nil {
			return 0, err
		}
		total += d.Seconds() * factor
		for _, s := range chunk {
			s.runMS *= factor
			s.encodeMS *= factor
		}
	}
	return total, nil
}

// reference computes the scenario's result with serve.OneShot.
func (s *scenario) reference() error {
	id, ref, err := serve.OneShot(context.Background(), s.sc)
	if err == nil && id != s.id {
		err = fmt.Errorf("OneShot id %s, want %s", id, s.id)
	}
	if err != nil {
		return fmt.Errorf("reference for scenario %d: %w", s.sc.ID, err)
	}
	s.ref = ref
	return nil
}

// measureLayers runs the scenario through xcheck.RunScenario and
// serve.ResultNDJSON under spans, records their wall times and checks the
// bytes against the reference.
func (s *scenario) measureLayers(sp *spans, rep *report) error {
	parent := sp.begin("serve.OneShot", 0)
	defer sp.end(parent, 0)
	id := sp.begin("xcheck.RunScenario", parent)
	t0 := time.Now()
	res, err := xcheck.RunScenario(context.Background(), s.sc)
	t1 := time.Now()
	if err != nil {
		sp.end(id, 0)
		return fmt.Errorf("scenario %d: %w", s.sc.ID, err)
	}
	sp.end(id, int64(res.Outcomes.Total()))
	id = sp.begin("serve.ResultNDJSON", parent)
	body := serve.ResultNDJSON(s.id, &s.sc, res)
	t2 := time.Now()
	sp.end(id, int64(len(body)))
	if !bytes.Equal(body, s.ref) {
		rep.op(fmt.Errorf("scenario %d: traced reference differs from serve.OneShot", s.sc.ID))
	}
	s.runMS = t1.Sub(t0).Seconds() * 1e3
	s.encodeMS = t2.Sub(t1).Seconds() * 1e3
	s.probes = float64(res.Outcomes.Total())
	return nil
}

// referenceLayers fills the exact driver's and the encoder's per-layer
// figures from the traced reference pass.
func referenceLayers(scs []*scenario, rep *report) {
	var runMS, encodeMS, resultBytes []float64
	probes := 0.0
	for _, s := range scs {
		runMS = append(runMS, s.runMS)
		encodeMS = append(encodeMS, s.encodeMS)
		resultBytes = append(resultBytes, float64(len(s.ref)))
		probes += s.probes
	}
	rep.layer["xcheck.run_p50_ms"] = median(runMS)
	rep.layer["xcheck.run_p95_ms"] = percentile(runMS, 0.95)
	rep.layer["sim.exact_probes_per_s"] = probes / (sum(runMS) / 1e3)
	rep.layer["serve.encode_ms"] = median(encodeMS)
	rep.layer["serve.result_bytes"] = median(resultBytes)
}

// serveRound starts a server on a fresh state directory, lets the clients
// work through seq, checks every served body against its reference and the
// server's admission ledger against what the clients saw, and shuts the
// server down. It returns the round's time in seconds, its jobs and the
// server's ledger; times are reference-host times.
func serveRound(scs []*scenario, seq []int, sp *spans, o options, round int, rep *report) (float64, []servedJob, map[string]uint64, error) {
	dir, err := os.MkdirTemp(o.stateDir, "serve-state-")
	if err != nil {
		return 0, nil, nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{
		Dir:        dir,
		Workers:    serveWorkers,
		QueueDepth: serveQueue,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		return 0, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, nil, errors.Join(err, srv.Drain(time.Second))
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	c := &client{
		http: &http.Client{Transport: transport},
		base: "http://" + ln.Addr().String(),
		sp:   sp,
	}

	jobs := make([]servedJob, len(seq))
	errs := make([]error, len(seq))
	var wall float64
	runtime.GC()
	factor := o.host.around(func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for k := 0; k < serveClients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seq) {
						return
					}
					corrupt := o.corrupt && round == 0 && i == 0
					jobs[i], errs[i] = c.job(scs[seq[i]-1], corrupt)
				}
			}()
		}
		wg.Wait()
		wall = time.Since(start).Seconds()
	})

	ledger, ledgerErr := c.ledger()
	var ok []servedJob
	for i, err := range errs {
		rep.op(err)
		if err == nil {
			j := jobs[i]
			j.postMS, j.getMS, j.totalMS = j.postMS*factor, j.getMS*factor, j.totalMS*factor
			ok = append(ok, j)
		}
	}
	rep.op(checkLedger(ledger, ledgerErr, ok))

	drainErr := srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	transport.CloseIdleConnections()
	if err := errors.Join(drainErr, shutErr); err != nil {
		return 0, nil, nil, fmt.Errorf("server shutdown: %w", err)
	}
	return wall * factor, ok, ledger, nil
}

// client is one round's HTTP client.
type client struct {
	http *http.Client
	base string
	sp   *spans
}

// job submits one scenario and reads its result to the last byte, checking
// the id the server assigned and the result against the reference.
func (c *client) job(s *scenario, corrupt bool) (servedJob, error) {
	j := servedJob{sc: s}
	parent := c.sp.begin("client.job", 0)
	defer c.sp.end(parent, 0)

	id := c.sp.begin("POST /scenarios", parent)
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/scenarios", "application/json", bytes.NewReader(s.body))
	if err != nil {
		c.sp.end(id, 0)
		return j, fmt.Errorf("scenario %d: submit: %w", s.sc.ID, err)
	}
	var sub struct{ ID, Status string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t1 := time.Now()
	c.sp.end(id, 0)
	switch {
	case err != nil:
		return j, fmt.Errorf("scenario %d: submit response: %w", s.sc.ID, err)
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return j, fmt.Errorf("scenario %d: submit: HTTP %d", s.sc.ID, resp.StatusCode)
	case sub.ID != s.id:
		return j, fmt.Errorf("scenario %d: server assigned id %s, want %s", s.sc.ID, sub.ID, s.id)
	}
	j.status = sub.Status

	id = c.sp.begin("GET /jobs/{id}/result", parent)
	resp, err = c.http.Get(c.base + "/jobs/" + sub.ID + "/result")
	if err != nil {
		c.sp.end(id, 0)
		return j, fmt.Errorf("scenario %d: result: %w", s.sc.ID, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	c.sp.end(id, int64(len(body)))
	switch {
	case err != nil:
		return j, fmt.Errorf("scenario %d: result body: %w", s.sc.ID, err)
	case resp.StatusCode != http.StatusOK:
		return j, fmt.Errorf("scenario %d: result: HTTP %d", s.sc.ID, resp.StatusCode)
	}
	if corrupt && len(body) > 0 {
		body[len(body)/2] ^= 1
	}
	if !bytes.Equal(body, s.ref) {
		return j, fmt.Errorf("scenario %d: served result differs from serve.OneShot", s.sc.ID)
	}
	j.postMS = t1.Sub(t0).Seconds() * 1e3
	j.getMS = t2.Sub(t1).Seconds() * 1e3
	j.totalMS = t2.Sub(t0).Seconds() * 1e3
	return j, nil
}

// ledger reads the server's admission and job counters from /metrics.
func (c *client) ledger() (map[string]uint64, error) {
	id := c.sp.begin("GET /metrics", 0)
	defer c.sp.end(id, 0)
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		k := strings.LastIndexByte(line, ' ')
		if k < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[k+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:k]] = uint64(v)
	}
	return out, sc.Err()
}

// Series names of the ledger counters.
const (
	submitAccepted   = `serve_submit_total{result="accepted"}`
	submitCoalesced  = `serve_submit_total{result="coalesced"}`
	submitCachedMem  = `serve_submit_total{result="cached_mem"}`
	submitCachedDisk = `serve_submit_total{result="cached_disk"}`
	submitShed       = `serve_submit_total{result="shed"}`
	jobsCompleted    = `serve_jobs_total{state="completed"}`
)

// checkLedger checks that every acknowledged submission is in the server's
// ledger and every accepted job completed.
func checkLedger(l map[string]uint64, err error, jobs []servedJob) error {
	if err != nil {
		return err
	}
	counts := map[string]uint64{}
	for _, j := range jobs {
		counts[j.status]++
	}
	admitted := l[submitAccepted] + l[submitCoalesced] + l[submitCachedMem] + l[submitCachedDisk]
	switch {
	case admitted != uint64(len(jobs)):
		return fmt.Errorf("server admitted %d submissions, clients were acknowledged %d", admitted, len(jobs))
	case l[submitAccepted] != counts[string(serve.StatusAccepted)]:
		return fmt.Errorf("server accepted %d jobs, clients saw %d", l[submitAccepted], counts[string(serve.StatusAccepted)])
	case l[jobsCompleted] != l[submitAccepted]:
		return fmt.Errorf("server completed %d of %d accepted jobs", l[jobsCompleted], l[submitAccepted])
	}
	return nil
}

// serveLayer gathers the traced rounds' per-layer measurements.
type serveLayer struct {
	acceptedMS, cachedMS, waitMS, queueMS []float64
	accepted, cached, coalesced, shed     []float64 // per round, from the ledger
}

func (s *serveLayer) add(jobs []servedJob, ledger map[string]uint64) {
	for _, j := range jobs {
		switch serve.SubmitStatus(j.status) {
		case serve.StatusAccepted:
			s.acceptedMS = append(s.acceptedMS, j.postMS)
			s.waitMS = append(s.waitMS, j.getMS)
			s.queueMS = append(s.queueMS, j.totalMS-j.sc.runMS)
		case serve.StatusCached:
			s.cachedMS = append(s.cachedMS, j.postMS)
		}
	}
	s.accepted = append(s.accepted, float64(ledger[submitAccepted]))
	s.cached = append(s.cached, float64(ledger[submitCachedMem]+ledger[submitCachedDisk]))
	s.coalesced = append(s.coalesced, float64(ledger[submitCoalesced]))
	s.shed = append(s.shed, float64(ledger[submitShed]))
}

func (s *serveLayer) report(rep *report) {
	rep.layer["serve.submit_accepted_ms"] = median(s.acceptedMS)
	rep.layer["serve.submit_cached_ms"] = median(s.cachedMS)
	rep.layer["serve.result_wait_ms"] = median(s.waitMS)
	rep.layer["serve.queue_ms"] = median(s.queueMS)
	rep.layer["serve.accepted"] = median(s.accepted)
	rep.layer["serve.cached"] = median(s.cached)
	rep.layer["serve.coalesced"] = median(s.coalesced)
	rep.layer["serve.shed"] = median(s.shed)
}
