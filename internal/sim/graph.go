package sim

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/worm"
)

// Graph drivers: RunExact and RunFast dispatch here when the config's
// Topology is a topo.Graph. The worm spreads over neighbor lists — an
// infected node probes only its own adjacency — but the drivers keep
// the IPv4 engines' determinism shape exactly: two-phase ticks, one RNG
// stream per (agent, tick) seeded from (Seed, node id, step) alone,
// contiguous agent shards, and a serial first-wins merge in agent
// order, so output is byte-identical for every worker count. The
// worlds passed in must satisfy topo.ValidateGraph; the drivers trust
// sorted symmetric adjacency and do not re-validate per run.
//
// Node ids double as addresses: trace infection events store the victim
// node id in the Addr field, seed edges use Vector "seed" as on IPv4,
// and scan edges use Vector "edge" with the true infector in Agent —
// including the fast driver, whose per-agent thinned draws know their
// infector (unlike the IPv4 fast driver's aggregated Agent -1 edges).

// graphEvent is a phase-1 candidate infection: agent probed victim, and
// victim was susceptible in the tick-start snapshot.
type graphEvent struct {
	agent, victim int32
}

// graphWorker is one phase-1 shard's private state, shared by both
// graph drivers (the fast driver leaves probes/outcomes untouched and
// counts sensor arrivals instead).
type graphWorker struct {
	r           rng.Xoshiro
	probes      uint64
	outcomes    OutcomeCounts
	events      []graphEvent
	sensorDraws uint64
}

func (w *graphWorker) reset() {
	w.probes = 0
	w.outcomes = OutcomeCounts{}
	w.events = w.events[:0]
	w.sensorDraws = 0
}

// graphSeeds samples the initially infected nodes: SeedHosts drawn
// without replacement from the ascending susceptible (non-sensor) node
// list, on the run seed's root stream. Both drivers use this exact
// derivation, so a fast/exact pair on the same seed starts from the
// same outbreak.
func graphSeeds(g topo.Graph, seed uint64, seedHosts int) []int32 {
	sus := make([]int32, 0, g.Nodes()-g.SensorCount())
	for i := 0; i < g.Nodes(); i++ {
		if !g.IsSensor(i) {
			sus = append(sus, int32(i))
		}
	}
	r := rng.NewXoshiro(seed)
	seeds := make([]int32, 0, seedHosts)
	for _, k := range r.SampleWithoutReplacement(len(sus), seedHosts) {
		seeds = append(seeds, sus[k])
	}
	return seeds
}

// runExactGraph is the probe-exact driver over a neighbor graph. Every
// probe of every infected node picks a neighbor through the config's
// NeighborPicker (uniform by default) and classifies it against the
// tick-start snapshot: sensor neighbors are OutcomeSensorHit, infected
// neighbors OutcomeDelivered, susceptible neighbors buffered candidates
// that the serial merge resolves first-agent-wins.
func runExactGraph(cfg ExactConfig, g topo.Graph) (*Result, error) {
	if err := cfg.validateGraph(g); err != nil {
		return nil, err
	}
	n := g.Nodes()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	picker := cfg.Neighbor
	if picker == nil {
		picker = worm.UniformNeighbor{}
	}

	infected := make([]bool, n)
	infTime := make([]float64, n)
	for i := range infTime {
		infTime[i] = -1
	}
	var agents []int32
	infect := func(id int32, t float64) {
		infected[id] = true
		infTime[id] = t
		agents = append(agents, id)
	}
	rec := cfg.Trace
	rec.Append(trace.Event{Tick: 0, T: 0, Kind: trace.KindPhase, Agent: -1, Victim: -1,
		Vector: "start", Detail: "exact " + g.Name()})
	for _, id := range graphSeeds(g, cfg.Seed, cfg.SeedHosts) {
		infect(id, 0)
		rec.AppendInfection(0, 0, -1, int(id), uint32(id), "seed")
	}

	probesPerTick := int(cfg.ScanRate*cfg.TickSeconds + 0.5) // ≥1, by validation
	steps := int(cfg.MaxSeconds / cfg.TickSeconds)
	res := &Result{InfectionTime: infTime, Series: make([]TickInfo, 0, steps)}
	metrics := newSimMetrics(cfg.Metrics, "exact", cfg.MetricLabels)

	ws := make([]graphWorker, workers)
	for step := 1; step <= steps; step++ {
		t := float64(step) * cfg.TickSeconds
		cfg.Clock.Set(t)

		// Phase 1: classify against the tick-start snapshot. Nodes
		// infected this tick start probing next tick, and `infected` is
		// only written in phase 2, so shared reads are race-free.
		// Isolated nodes have nobody to probe: they emit no probes and
		// consume no RNG, so their stream ids stay untouched.
		nAgents := len(agents)
		nShards := workers
		if nShards > nAgents {
			nShards = nAgents
		}
		stepU := uint64(step)
		classify := func(w *graphWorker, shard []int32) {
			w.reset()
			for _, id := range shard {
				nbrs := g.Neighbors(int(id))
				if len(nbrs) == 0 {
					continue
				}
				w.r.SeedStream(cfg.Seed, uint64(id), stepU)
				for p := 0; p < probesPerTick; p++ {
					w.probes++
					v := nbrs[picker.PickNeighbor(len(nbrs), &w.r)]
					switch {
					case g.IsSensor(int(v)):
						w.outcomes[OutcomeSensorHit]++
					case infected[v]:
						w.outcomes[OutcomeDelivered]++
					default:
						w.events = append(w.events, graphEvent{agent: id, victim: v})
					}
				}
			}
		}
		if nShards <= 1 {
			nShards = 1
			classify(&ws[0], agents[:nAgents])
		} else {
			var wg sync.WaitGroup
			for wi := 0; wi < nShards; wi++ {
				lo := wi * nAgents / nShards
				hi := (wi + 1) * nAgents / nShards
				wg.Add(1)
				go func(w *graphWorker, shard []int32) {
					defer wg.Done()
					classify(w, shard)
				}(&ws[wi], agents[lo:hi:hi])
			}
			wg.Wait()
		}

		// Phase 2: serial merge in agent order; duplicate candidates
		// resolve first-agent-wins, later ones land as Delivered (the
		// probe reached an already-infected node).
		var newInf int
		var probes uint64
		var outcomes OutcomeCounts
		for wi := 0; wi < nShards; wi++ {
			probes += ws[wi].probes
			outcomes.Merge(ws[wi].outcomes)
		}
		for wi := 0; wi < nShards; wi++ {
			for _, ev := range ws[wi].events {
				if !infected[ev.victim] {
					infect(ev.victim, t)
					newInf++
					outcomes[OutcomeInfection]++
					rec.AppendInfection(step, t, int(ev.agent), int(ev.victim), uint32(ev.victim), "edge")
				} else {
					outcomes[OutcomeDelivered]++
				}
			}
		}

		info := TickInfo{Time: t, Infected: len(agents), NewInfections: newInf, Probes: probes, Outcomes: outcomes}
		res.Series = append(res.Series, info)
		res.Final = info
		res.Outcomes.Merge(outcomes)
		if rec != nil {
			rec.Append(trace.Event{Tick: step, T: t, Kind: trace.KindProbes, Agent: -1, Victim: -1,
				N: probes, Detail: outcomes.String()})
		}
		metrics.flushTick(info)
		if cfg.OnTick != nil && !cfg.OnTick(info) {
			break
		}
		if cfg.StopWhenInfected > 0 && len(agents) >= cfg.StopWhenInfected {
			break
		}
	}
	rec.Append(trace.Event{Tick: len(res.Series), T: res.Final.Time, Kind: trace.KindPhase,
		Agent: -1, Victim: -1, Vector: "end", Detail: "exact " + g.Name(), N: uint64(res.Final.Infected)})
	return res, nil
}

// runFastGraph is the aggregated driver over a neighbor graph. Each
// infected node's per-tick probes are a Poisson process thinned to the
// arrivals that matter — live-neighbor hits and sensor-neighbor hits —
// at rate perHost·(liveNbrs+sensNbrs)/degree, the graph analogue of the
// IPv4 driver's live-pool thinning. Each agent draws from its own
// per-(node, tick) stream with the same gate discipline as the IPv4
// fast driver (Knuth squeeze below λ=30, rng.Poisson above), so worker
// count, tick skipping, and trace attachment never change output.
// Unlike IPv4 fast aggregation, the draws here know their infector, so
// trace edges carry true provenance.
//
// The agent list holds only nodes that can still draw. A node's thinned
// rate is proportional to liveNbrs+sensNbrs; liveNbrs never rises (it
// falls as neighbors are infected) and sensNbrs is fixed, so once the
// sum reaches zero the node is burnt out for the rest of the run. Each
// tick's serial pass compacts such nodes out of the list in place, in
// infection order, while it sums the kept rates. Retiring them is
// byte-identical to visiting them: a zero-rate node consumes no RNG,
// its rate term was an exact +0.0 in the same-order float sum, and the
// merge order of the remaining agents is unchanged. Burnt-out nodes
// still emit their perHost probes into the tick's probe total, which
// counts every infected node of degree > 0 (probing), not the list.
func runFastGraph(cfg FastConfig, g topo.Graph) (*Result, error) {
	if err := cfg.validateGraph(g); err != nil {
		return nil, err
	}
	n := g.Nodes()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	infected := make([]bool, n)
	infTime := make([]float64, n)
	for i := range infTime {
		infTime[i] = -1
	}
	// liveNbrs counts each node's susceptible (non-sensor, non-infected)
	// neighbors; sensNbrs its sensor neighbors. Both shape the thinned
	// rates; liveNbrs is maintained incrementally as infections land.
	liveNbrs := make([]int32, n)
	sensNbrs := make([]int32, n)
	for i := 0; i < n; i++ {
		for _, v := range g.Neighbors(i) {
			if g.IsSensor(int(v)) {
				sensNbrs[i]++
			} else {
				liveNbrs[i]++
			}
		}
	}
	// agents lists the infected nodes that may still draw, in infection
	// order; probing counts every infected node of degree > 0, burnt-out
	// or not, since each still emits its probes.
	var agents []int32
	total, probing := 0, 0
	infect := func(id int32, t float64) {
		infected[id] = true
		infTime[id] = t
		total++
		if g.Degree(int(id)) > 0 {
			probing++
			agents = append(agents, id)
		}
		for _, u := range g.Neighbors(int(id)) {
			liveNbrs[u]--
		}
	}
	rec := cfg.Trace
	rec.Append(trace.Event{Tick: 0, T: 0, Kind: trace.KindPhase, Agent: -1, Victim: -1,
		Vector: "start", Detail: "fast " + g.Name()})
	for _, id := range graphSeeds(g, cfg.Seed, cfg.SeedHosts) {
		infect(id, 0)
		rec.AppendInfection(0, 0, -1, int(id), uint32(id), "seed")
	}

	perHost := cfg.ScanRate * cfg.TickSeconds
	// liveNeighbor resolves the j-th susceptible neighbor of id against
	// the tick-start snapshot — an O(degree) positional scan of the
	// sorted adjacency, never a map.
	liveNeighbor := func(id int32, j uint64) int32 {
		for _, v := range g.Neighbors(int(id)) {
			if infected[v] || g.IsSensor(int(v)) {
				continue
			}
			if j == 0 {
				return v
			}
			j--
		}
		panic("sim: live neighbor index out of snapshot range")
	}
	// drawAgent consumes agent id's (node, tick) stream: one gate
	// sequence for the arrival count, then per arrival one categorical
	// draw (infection category first, then sensor) and, for infections,
	// one selection draw over the live neighbors.
	drawAgent := func(w *graphWorker, id int32, step int) {
		deg := g.Degree(int(id))
		if deg == 0 {
			return
		}
		lamInf := perHost * float64(liveNbrs[id]) / float64(deg)
		lamSens := perHost * float64(sensNbrs[id]) / float64(deg)
		lam := lamInf + lamSens
		if lam <= 0 {
			return
		}
		r := &w.r
		r.SeedStream(cfg.Seed, uint64(id), uint64(step))
		var k uint64
		if lam < 30 {
			// Knuth inversion with the 1−λ ≤ e^{−λ} squeeze, exactly as
			// the IPv4 driver's gate: draw consumption is identical to
			// rng.Poisson for the same stream.
			prod := r.Float64()
			if prod > 1-lam {
				p0 := math.Exp(-lam)
				for prod > p0 {
					k++
					prod *= r.Float64()
				}
			}
		} else {
			k = r.Poisson(lam)
		}
		for ; k > 0; k-- {
			u := r.Float64() * lam
			if lamInf > 0 && u <= lamInf {
				j := r.Uint64n(uint64(liveNbrs[id]))
				w.events = append(w.events, graphEvent{agent: id, victim: liveNeighbor(id, j)})
			} else {
				w.sensorDraws++
			}
		}
	}

	steps := int(cfg.MaxSeconds / cfg.TickSeconds)
	res := &Result{InfectionTime: infTime, Series: make([]TickInfo, 0, steps)}
	metrics := newSimMetrics(cfg.Metrics, "fast", cfg.MetricLabels)

	ws := make([]graphWorker, workers)
	for step := 1; step <= steps; step++ {
		t := float64(step) * cfg.TickSeconds
		cfg.Clock.Set(t)

		// Serial pass over the tick-start agent list: retire burnt-out
		// agents in place and sum the kept rates for the skip gate.
		// Agents are visited in infection order, so the float sum's
		// order is fixed.
		kept := agents[:0]
		lamTotal := 0.0
		for _, id := range agents {
			rate := liveNbrs[id] + sensNbrs[id]
			if rate == 0 {
				continue
			}
			kept = append(kept, id)
			lamTotal += perHost * float64(rate) / float64(g.Degree(int(id)))
		}
		agents = kept
		nAgents := len(agents)
		probesTotal := perHost * float64(probing)

		var newInf int
		var sensorDraws uint64
		apply := func(w *graphWorker) {
			sensorDraws += w.sensorDraws
			for _, ev := range w.events {
				if infected[ev.victim] {
					continue // claimed earlier this tick
				}
				infect(ev.victim, t)
				newInf++
				rec.AppendInfection(step, t, int(ev.agent), int(ev.victim), uint32(ev.victim), "edge")
			}
		}

		nShards := workers
		if nShards > nAgents {
			nShards = nAgents
		}
		if nShards <= 1 || (!cfg.DisableTickSkip && lamTotal <= fastSkipLambda) {
			// Quiescent/serial fast path: same draws, no worker dispatch.
			w := &ws[0]
			w.reset()
			for _, id := range agents[:nAgents] {
				drawAgent(w, id, step)
			}
			apply(w)
		} else {
			var wg sync.WaitGroup
			for wi := 0; wi < nShards; wi++ {
				lo := wi * nAgents / nShards
				hi := (wi + 1) * nAgents / nShards
				wg.Add(1)
				go func(w *graphWorker, shard []int32, step int) {
					defer wg.Done()
					w.reset()
					for _, id := range shard {
						drawAgent(w, id, step)
					}
				}(&ws[wi], agents[lo:hi:hi], step)
			}
			wg.Wait()
			// Serial merge in worker order = agent order; duplicate
			// victims resolve first-event-wins.
			for wi := 0; wi < nShards; wi++ {
				apply(&ws[wi])
			}
		}

		probesEmitted, outcomes := closeFastTickOutcomes(probesTotal, newInf, sensorDraws, 0, 1, 0)
		info := TickInfo{Time: t, Infected: total, NewInfections: newInf, Probes: probesEmitted, Outcomes: outcomes}
		res.Series = append(res.Series, info)
		res.Final = info
		res.Outcomes.Merge(outcomes)
		if rec != nil {
			rec.Append(trace.Event{Tick: step, T: t, Kind: trace.KindProbes, Agent: -1, Victim: -1,
				N: probesEmitted, Detail: outcomes.String()})
		}
		metrics.flushTick(info)
		if cfg.OnTick != nil && !cfg.OnTick(info) {
			break
		}
		if cfg.StopWhenInfected > 0 && total >= cfg.StopWhenInfected {
			break
		}
	}
	rec.Append(trace.Event{Tick: len(res.Series), T: res.Final.Time, Kind: trace.KindPhase,
		Agent: -1, Victim: -1, Vector: "end", Detail: "fast " + g.Name(), N: uint64(res.Final.Infected)})
	return res, nil
}
