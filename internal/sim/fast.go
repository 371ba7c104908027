package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// FastConfig configures the aggregated driver.
type FastConfig struct {
	// Topology selects the world the epidemic spreads over. nil means the
	// reference IPv4 world — the paper's flat address space, driven by
	// Pop/Model below. A graph world runs the neighbor-graph driver
	// instead, in which case the IPv4-only fields (Pop, Model,
	// BlockedDst, Sensors, SensorSet, LossRate, Containment, Faults) must
	// be unset — they have no graph semantics and are rejected with a
	// *TopologyConflictError rather than silently ignored.
	Topology topo.Graph
	// Pop is the vulnerable population.
	Pop *population.Population
	// Model decomposes the scanner into mixture components.
	Model RateModel
	// ScanRate is probes per second per infected host; TickSeconds the
	// step; MaxSeconds the horizon.
	ScanRate    float64
	TickSeconds float64
	MaxSeconds  float64
	// SeedHosts initially infected hosts, drawn uniformly.
	SeedHosts int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the number of phase-1 draw goroutines per tick (0 means
	// GOMAXPROCS, 1 runs the draws inline). Every tick takes the same
	// path at every worker count, and results are byte-identical for
	// every worker count: each mixture group's draws come from its own
	// per-(group, tick) RNG stream and merge in group-creation order
	// (DESIGN.md §14).
	Workers int
	// LossRate is the environmental probe-loss probability.
	LossRate float64
	// BlockedDst is destination space hard-blocked upstream (probes there
	// are always lost). May be nil.
	BlockedDst *ipv4.Set
	// Sensors receives monitored probes; SensorSet is the union of
	// monitored space and must be set when Sensors is.
	Sensors   HitRecorder
	SensorSet *ipv4.Set
	// OnTick, when non-nil, is called each tick; returning false stops.
	OnTick func(TickInfo) bool
	// StopWhenInfected stops once this many hosts are infected (0=never).
	StopWhenInfected int
	// Containment, when non-nil, models a coordinated response (Internet
	// quarantine): once Trigger returns true the policy engages and every
	// subsequent probe is dropped with probability Drop.
	Containment *Containment
	// Metrics, when non-nil, receives per-tick probe-outcome counters and
	// run gauges (see DESIGN.md for the metric-name contract). Attaching a
	// registry never perturbs the run: telemetry draws no randomness.
	Metrics *obs.Registry
	// MetricLabels are extra label pairs ("k1", "v1", …) appended to every
	// series this run registers. Runs sharing one registry — concurrent
	// sweep points in particular — must set distinct labels here, or their
	// counters aggregate indistinguishably and gauges become
	// last-writer-wins.
	MetricLabels []string
	// Clock, when non-nil, is set to the tick's simulated time at the
	// start of each tick, so observers (sensor fleets, tracers) timestamp
	// events in simulated seconds.
	Clock *obs.SimClock
	// Faults, when non-nil, injects the plan's sensor outages, bursty
	// loss, and degraded reporting into the run. The plan's horizon must
	// cover MaxSeconds. The burst channel scales each tick's delivery
	// probability; sensor draws landing on withdrawn blocks are
	// OutcomeSensorDown and never reach Sensors.
	Faults *faults.Plan
	// Trace, when non-nil, receives the run's flight-recorder events.
	// The fast driver draws infections in aggregate, so its edges carry
	// no infector (Agent -1) and are attributed to the mixture component
	// that drew them (Vector "c0", "c1", … in the model's component
	// order). Attaching a recorder draws no randomness and never perturbs
	// the run (DESIGN.md §12).
	Trace *trace.Recorder
}

// Containment is a global response policy: detection-triggered filtering
// of the worm's traffic (Moore et al.'s "Internet quarantine" model). The
// paper's closing argument — local detection matters because it triggers
// response *early* — is quantified by wiring a detector fleet's alert state
// into Trigger.
type Containment struct {
	// Trigger is evaluated after every tick; once it returns true the
	// policy engages for the rest of the run.
	Trigger func() bool
	// Drop is the per-probe drop probability once engaged.
	Drop float64
	// engaged latches the trigger; EngagedAt records the simulated time.
	// RunFast resets both when a run starts, so one policy can serve
	// several runs in turn.
	engaged   bool
	EngagedAt float64
}

// Engaged reports whether the policy has triggered.
func (c *Containment) Engaged() bool { return c.engaged }

func (c *FastConfig) validate() error {
	if c.Pop == nil || c.Pop.Size() == 0 {
		return errors.New("sim: empty population")
	}
	if err := checkSlotCeiling(c.Pop.Size()); err != nil {
		return err
	}
	if c.Model == nil {
		return errors.New("sim: nil rate model")
	}
	if err := c.params().check(false); err != nil {
		return err
	}
	if c.SeedHosts <= 0 || c.SeedHosts > c.Pop.Size() {
		return fmt.Errorf("sim: seed hosts %d out of range", c.SeedHosts)
	}
	if c.Sensors != nil && c.SensorSet == nil {
		return errors.New("sim: Sensors set but SensorSet missing")
	}
	if math.IsNaN(c.LossRate) || c.LossRate < 0 || c.LossRate >= 1 {
		return errors.New("sim: loss rate out of [0,1)")
	}
	if c.Containment != nil {
		if c.Containment.Trigger == nil {
			return errors.New("sim: containment without a trigger")
		}
		if math.IsNaN(c.Containment.Drop) || c.Containment.Drop < 0 || c.Containment.Drop > 1 {
			return errors.New("sim: containment drop out of [0,1]")
		}
	}
	return nil
}

// checkSlotCeiling rejects populations whose slots would not fit an
// int32. Slots, the kill list and its radix sort all assume non-negative
// int32 values, so the check runs before newFastState allocates anything
// sized by the population.
func checkSlotCeiling(hosts int) error {
	if hosts > math.MaxInt32 {
		return fmt.Errorf("sim: %d hosts exceed the int32 slot ceiling %d", hosts, math.MaxInt32)
	}
	return nil
}

// slotSpan is a half-open slot range [Lo, Hi) — topo.Span, which
// topo.VictimSpans constructs; the driver keeps the local alias because
// span geometry is host layout, not set algebra.
type slotSpan = topo.Span

// fastComp is one precomputed mixture component of a group. Its victim
// pool is an immutable union of slot spans; liveness is resolved
// against the shared live index at draw time, so the per-tick arrival rate
// is weightOverSet times the *live* pool size — Poisson thinning of the
// full-pool rate, distributionally equivalent to drawing at the full rate
// and rejecting infected victims, without the late-epidemic rejection
// waste.
type fastComp struct {
	weightOverSet float64 // component weight divided by the set's address count
	pSensor       float64 // per-probe probability of landing on monitored space
	data          *compData
	sensors       *ipv4.Set
}

// fastGroup aggregates infected hosts sharing a mixture. Its components
// are the span [off, off+n) of fastState.comps — one flat slice for all
// groups instead of a per-group allocation.
type fastGroup struct {
	off, n   int32
	infected int
	// key is the group's RNG stream key, rng.StreamKey(seed, index in
	// groupList): its per-tick stream is the one SeedStream(seed, index,
	// step) would seed.
	key uint64
	// stamp is the rate rebuild at which evalGroup last wrote the group's
	// λ and category rates; they are exact while stamp == rateStamp and
	// an upper bound on the exact λ after that (see rebuildRates). dirty
	// marks a group whose infected count changed since, which voids the
	// bound until the next rebuild evaluates it; idx is the group's index
	// in groupList, which infectSlot queues on dirtyGroups.
	stamp uint64
	dirty bool
	idx   int32
}

type compKey struct {
	set  *ipv4.Set
	site int
}

// compData is the per-(set, site) pool geometry: the slot spans the
// set covers plus the monitored-space intersection. The geometry fields are
// immutable after construction; the live counts below are refreshed
// serially by rebuildRates and only read by phase-1 workers, so neither
// needs synchronization.
type compData struct {
	spans       []slotSpan
	sensorInter *ipv4.Set
	sensorSize  uint64
	setSize     uint64

	// Live counts: per-span cumulative live counts and their total, exact
	// for the live index as of the last rate rebuild. A rebuild touches
	// only the pools that are new or hold one of its kills (refreshPools);
	// every other pool's counts are still exact. stamp names the rebuild
	// that last refreshed the pool, 0 before its first. A victim draw picks
	// the span from cumLive and adds the span's start rank (see
	// victimRank), which gives its global live rank without a select.
	stamp   uint64
	liveCt  int64
	cumLive []int64
}

// poolLink is one entry of the run → pool reverse index: pool is an index
// into fastState.compList, next the run's following entry (0 ends it).
type poolLink struct {
	pool, next int32
}

// fastEvent is one phase-1 arrival awaiting the serial merge: an infection
// candidate (victim ≥ 0) or a sensor observation (victim -1). Phase 1
// stores a candidate's global live rank as of the tick start; the merge
// replaces each winning rank with its slot before any infection lands
// (claimWinners, resolveWinners). ci is the component index within its
// group, kept for trace attribution.
type fastEvent struct {
	victim int32
	ci     int32
	dst    ipv4.Addr
}

// fastState carries the driver's caches.
type fastState struct {
	cfg FastConfig
	pop *population.Population

	// groups maps a GroupKey to its group. Only the first infection in a
	// group run consults it (see runGroup).
	groups map[uint64]*fastGroup
	// groupList holds groups in creation order: per-tick processing must
	// not follow map iteration order, or same-seed runs would diverge. A
	// group's index here is also its RNG stream id.
	groupList []*fastGroup
	// comps is the flattened component storage shared by every group.
	// Groups address it by span, never by pointer: buildComps may grow
	// (and reallocate) it when the merge phase creates a group.
	comps []fastComp
	// compCache memoizes per-(set, site) component data; compList holds
	// the same pools in creation order. Pools compList[poolsLive:] were
	// built since the last rate rebuild and have no live counts yet.
	compCache map[compKey]*compData
	compList  []*compData
	poolsLive int

	// A host's slot is its id: the population's canonical order (public
	// hosts by address, then each NAT site by private address) is the slot
	// order. Every victim pool is a span union over it, and a single live
	// index carries all per-host infection state — no per-host pool
	// registry, no pool mutation.
	live *liveIndex

	// Group runs: the maximal slot ranges whose hosts share one
	// GroupKey. runStart[r] is run r's first slot; runBlock[b] is the run
	// holding live-index block b's first slot, so a slot's run is a search
	// among the few runs of its own block. runGroup[r] is the run's group,
	// nil until the run's first infection. A key may own several runs
	// (LocalPrefModel keys NAT'd hosts by private /24 across sites), which
	// is why that first infection still goes through groups.
	runStart []int32
	runBlock []int32
	runGroup []*fastGroup
	// The reverse pool index: runPools[r] heads the list, in poolLinks, of
	// the pools whose spans overlap run r, so a rebuild reaches the pools
	// a kill touches from the kill's run. poolLinks[0] is a sentinel and
	// 0 ends a list.
	runPools  []int32
	poolLinks []poolLink

	// infTime is the result's per-host infection time. Every kill in
	// killsTick happened at killTime, so the rebuild writes them in sorted
	// slot order instead of the merge writing one random host per kill.
	infTime  []float64
	killTime float64

	// Per-group/per-component intensity cache. A group's entries are
	// exact at the rebuild its stamp names and an upper bound on its λ
	// after that, until it turns dirty or the delivery probability moves
	// (rebuildRates). Draws evaluate a group exactly before they read more
	// than its gate, so both draw paths read the same exact floats, which
	// is what makes their outputs bit-identical.
	lam         []float64 // per group: arrival intensity λ, or a bound on it
	groupProbes []float64 // per group: probes per tick, infected·perHost
	catRate     []float64 // per comp: infection-category intensity
	catSens     []float64 // per comp: sensor-category intensity
	catLive     []int64   // per comp: live pool size at evaluation
	catRank     []int64   // per comp: live rank at its pool's first span start, at evaluation
	// lamTotal and probesTotal are the in-order sums of lam and
	// groupProbes, recomputed at every rebuild.
	lamTotal      float64
	probesTotal   float64
	cachedDeliver float64
	rateValid     bool
	rateStamp     uint64 // rebuild counter, matching compData.stamp
	// dirtyGroups lists, by groupList index, the groups marked dirty since
	// the last rate rebuild.
	dirtyGroups []int32
	// killsTick accumulates the slots killed since the last rate rebuild;
	// the rebuild sorts it and applies it to the pools it reaches.
	killsTick []int32
	killSort  slotSorter
	// claimed marks, per live rank, a victim draw that claimed it earlier
	// in the current merge. claimWinners clears every bit it sets before
	// it returns, so the bitset is all zero between ticks.
	claimed []uint64
}

// RunFast runs the aggregated simulation.
//
// Each tick executes in two phases. Phase 1 shards the mixture groups
// across cfg.Workers goroutines; every group draws its tick's arrivals —
// one Poisson gate draw, then a categorical component pick and a victim or
// sensor selection per arrival — from its own per-(group, tick) RNG
// stream, against the tick-start live index and the frozen intensity
// cache; a victim is buffered as its live rank at tick start. Phase 2
// merges the buffered events serially in group order: repeated ranks
// resolve first-group-wins, exactly as a serial pass would, the winners
// resolve to slots in parallel, and the infections land serially. Results
// are byte-identical for every worker count (DESIGN.md §14).
func RunFast(cfg FastConfig) (*Result, error) {
	if cfg.Topology != nil {
		return runFastGraph(cfg, cfg.Topology)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := cfg.params().loop("fast", "fast")
	if cfg.SensorSet != nil {
		// ipv4.Set builds its indexes lazily on first read. Freeze it now so
		// the phase-1 workers' concurrent reads are pure.
		cfg.SensorSet.Freeze()
	}
	st := newFastState(cfg)
	n := cfg.Pop.Size()
	total := 0
	rec := cfg.Trace
	seed := func() {
		seedR := rng.NewXoshiro(cfg.Seed)
		for _, id := range seedR.SampleWithoutReplacement(n, cfg.SeedHosts) {
			st.infectSlot(int32(id))
			total++
			rec.AppendInfection(0, 0, -1, id, uint32(st.pop.Host(id).Addr), "seed")
		}
	}
	// compVec caches the per-component attribution labels ("c0", "c1", …)
	// so traced runs do not re-render them per infection.
	var compVec []string
	vecName := func(ci int32) string {
		for int(ci) >= len(compVec) {
			compVec = append(compVec, fmt.Sprintf("c%d", len(compVec)))
		}
		return compVec[ci]
	}

	// Degraded reporting interposes between the wire and Sensors: hits are
	// queued at observation time and delivered (possibly duplicated) when
	// the simulated clock passes their due time.
	recordHit := func(dst ipv4.Addr) {}
	if cfg.Sensors != nil {
		recordHit = cfg.Sensors.RecordHit
		if l.reporter = cfg.Faults.NewReporter(func(_, dst ipv4.Addr) { cfg.Sensors.RecordHit(dst) }); l.reporter != nil {
			recordHit = l.reporter.RecordHit
		}
	}

	baseDeliver := 1 - cfg.LossRate
	deliver := baseDeliver
	if c := cfg.Containment; c != nil {
		c.engaged, c.EngagedAt = false, 0
		l.afterTick = func(t float64) {
			if !c.engaged && c.Trigger() {
				c.engaged = true
				c.EngagedAt = t
				deliver = baseDeliver * (1 - c.Drop)
			}
		}
	}
	// bufs[wi] is phase-1 shard wi's event buffer, kept across ticks and
	// written back once per tick by drawShard.
	bufs := make([][]fastEvent, l.workers)
	bounds := make([]int, 0, l.workers+1)
	resolve := func(wi, _, _ int) { st.resolveWinners(bufs[wi]) }
	res := l.run(st.infTime, seed, func(step int, t, burstLoss float64) TickInfo {
		// The burst channel multiplies this tick's delivery probability:
		// expected hit counts shrink by the channel's current loss exactly
		// as the exact driver's per-probe Bernoulli would on average.
		tickDeliver := deliver * (1 - burstLoss)
		//lint:ignore float-eq exact cache key: the cached rates were computed from this exact float, so == detects precisely the ticks that can reuse them
		if !st.rateValid || tickDeliver != st.cachedDeliver {
			st.rebuildRates(tickDeliver)
		}
		st.killTime = t

		// Phase 1: draw this tick's arrivals against the tick-start live
		// index. Infections land in phase 2, so the workers' shared reads
		// are race-free. Shards are cut at equal cumulative λ: groups are
		// listed in infection order, and the oldest hold nearly all of it.
		nShards := shardCount(l.workers, len(st.groupList))
		bounds = cutShards(bounds, st.lam, st.lamTotal, nShards)
		fanOut(bounds, func(wi, lo, hi int) {
			bufs[wi] = st.drawShard(bufs[wi], lo, hi, step)
		})

		// Phase 2: merge in shard order, each buffer in draw order. At tick
		// start rank ↔ slot is a bijection, so keeping the first draw of
		// each rank (claimWinners) keeps exactly the first draw of each
		// slot. Each shard's winners then resolve to slots on the worker
		// that drew them, against the index no kill has touched yet, and
		// only then do the infections land, serially (hosts infected this
		// tick never probe before the next tick — same feedback rule as
		// the exact driver).
		if st.claimWinners(bufs[:nShards]) > 0 {
			fanOut(bounds, resolve)
		}
		var newInf int
		var sensorDraws, sensorDown uint64
		for _, evs := range bufs[:nShards] {
			for _, ev := range evs {
				if ev.victim >= 0 {
					st.infectSlot(ev.victim)
					total++
					newInf++
					if rec != nil {
						rec.AppendInfection(step, t, -1, int(ev.victim), uint32(st.pop.Host(int(ev.victim)).Addr), vecName(ev.ci))
					}
					continue
				}
				if cfg.Faults.SensorDown(ev.dst, t) {
					// Delivered to withdrawn monitored space: the wire
					// carried it but no sensor was listening.
					sensorDown++
					continue
				}
				sensorDraws++
				recordHit(ev.dst)
			}
		}

		probesEmitted, outcomes := closeFastTickOutcomes(st.probesTotal, newInf, sensorDraws, sensorDown, deliver, burstLoss)
		return TickInfo{Infected: total, NewInfections: newInf, Probes: probesEmitted, Outcomes: outcomes}
	})
	st.stampKills() // the last tick's kills, which no rebuild indexed
	return res, nil
}

// claimWinners drops, in merge order — bufs in order, each in draw order —
// every victim draw whose rank an earlier draw of the tick already
// claimed. It compacts each buffer in place to its winners and sensor
// events and returns the number of winners. Before it returns it clears
// the claimed bits again by zeroing each winner's word, so a tick costs
// O(events), never a sweep of the whole bitset.
func (st *fastState) claimWinners(bufs [][]fastEvent) int {
	claimed := st.claimed
	winners := 0
	for wi, evs := range bufs {
		kept := evs[:0]
		for _, ev := range evs {
			if k := ev.victim; k >= 0 {
				w, bit := k>>6, uint64(1)<<(uint(k)&63)
				if claimed[w]&bit != 0 {
					continue // claimed earlier this tick
				}
				claimed[w] |= bit
				winners++
			}
			kept = append(kept, ev)
		}
		bufs[wi] = kept
	}
	if winners > 0 {
		for _, evs := range bufs {
			for _, ev := range evs {
				if ev.victim >= 0 {
					claimed[ev.victim>>6] = 0
				}
			}
		}
	}
	return winners
}

// resolveWinners replaces each winner's tick-start rank in evs with its
// slot. It only reads the live index, which no kill has touched since the
// tick's refresh, so shards resolve concurrently.
func (st *fastState) resolveWinners(evs []fastEvent) {
	for i := range evs {
		if k := evs[i].victim; k >= 0 {
			evs[i].victim = int32(st.live.selectRank(int(k)))
		}
	}
}

// infectSlot records an infection at st.killTime, creating the slot's
// group on its run's first infection. The group turns dirty: its infected
// count, and with it its λ, has risen. Callers guarantee the slot is live.
func (st *fastState) infectSlot(slot int32) {
	st.live.kill(int(slot))
	st.killsTick = append(st.killsTick, slot)
	r := st.runOf(slot)
	g := st.runGroup[r]
	if g == nil {
		h := st.pop.Host(int(slot))
		key := st.cfg.Model.GroupKey(h)
		if g = st.groups[key]; g == nil {
			off, cnt := st.buildComps(h)
			idx := len(st.groupList)
			g = &fastGroup{off: off, n: cnt, key: rng.StreamKey(st.cfg.Seed, uint64(idx)), idx: int32(idx)}
			st.groups[key] = g
			st.groupList = append(st.groupList, g)
		}
		st.runGroup[r] = g
	}
	g.infected++
	if !g.dirty {
		g.dirty = true
		st.dirtyGroups = append(st.dirtyGroups, g.idx)
	}
	st.rateValid = false
}

// cutShards refills bounds with the nShards+1 cut points that split the
// groups into contiguous ranges [bounds[wi], bounds[wi+1]) of about equal
// cumulative λ: cut k is the first group index whose in-order prefix sum
// reaches k/nShards of total, so no shard exceeds total/nShards by more
// than its largest group. lam holds rebuildRates' per-group bounds and
// total their in-order sum, lamTotal; when it is 0 every group lands in
// the last shard. Where the cuts fall changes only which worker draws a
// group, never its draws.
func cutShards(bounds []int, lam []float64, total float64, nShards int) []int {
	bounds = append(bounds[:0], 0)
	gi, sum := 0, 0.0
	for k := 1; k < nShards; k++ {
		target := total * float64(k) / float64(nShards)
		for gi < len(lam) && sum < target {
			sum += lam[gi]
			gi++
		}
		bounds = append(bounds, gi)
	}
	return append(bounds, len(lam))
}

// reserveEvents returns buf emptied, with capacity for lam expected
// arrivals plus six standard deviations of Poisson slack; lam is a sum of
// per-group bounds, so it errs large. Late-epidemic
// ticks at internet scale draw tens of millions of arrivals; sizing the
// buffer from the expectation turns a doubling cascade of multi-hundred-
// megabyte reallocations into one allocation per high-water mark.
// Capacity is invisible to the draw streams, so outputs are unchanged.
func reserveEvents(buf []fastEvent, lam float64) []fastEvent {
	need := int(lam+6*math.Sqrt(lam)) + 32
	if cap(buf) >= need {
		return buf[:0]
	}
	return make([]fastEvent, 0, need)
}

// drawShard draws groups [lo, hi) for one tick into buf, emptied and
// reserved for their expected arrivals, and returns it. The RNG and the
// growing slice live in this frame, not in memory shared between shards:
// shards writing per-draw state into adjacent words would share a cache
// line, and every draw would contend for it (DESIGN.md §14).
func (st *fastState) drawShard(buf []fastEvent, lo, hi, step int) []fastEvent {
	var lam float64
	for gi := lo; gi < hi; gi++ {
		lam += st.lam[gi]
	}
	var r rng.Xoshiro
	buf = reserveEvents(buf, lam)
	stepMix := rng.Mix64(uint64(step))
	for gi := lo; gi < hi; gi++ {
		buf = st.drawGroup(&r, gi, stepMix, buf)
	}
	return buf
}

// drawGroup consumes group gi's tick RNG stream and appends its arrival
// events. The stream is seeded from (seed, gi, step) alone — the group's
// key and stepMix = rng.Mix64(step) — so the draws are independent of
// which worker, or which execution path, runs them. Draw discipline, in
// order: one gate sequence decides how many arrivals the group-tick has
// (for λ < 30, Knuth inversion against p₀ = e^{-λ}, consuming draws
// exactly as rng.Poisson would; λ ≥ 30 delegates to rng.Poisson's normal
// approximation); then per arrival one categorical draw picks the
// component — categories in fixed order, infection then sensor per
// component — and one selection draw picks the victim, buffered as its
// tick-start live rank, or the sensor address.
//
// The gate's first uniform is read from the stream head alone
// (rng.FirstFloat64), and a uniform at or under 1−λ settles k = 0 — the
// Knuth squeeze, since 1−λ ≤ e^{−λ}. The stored λ may be a stale upper
// bound (rebuildRates); 1−λ_stored ≤ 1−λ_exact, so the squeeze settles
// only group-ticks the exact λ settles too. Every other group-tick is
// evaluated exactly first, so everything past the head reads exact floats.
// Only a group-tick that might fire pays for the exact λ and the full
// state expansion.
func (st *fastState) drawGroup(r *rng.Xoshiro, gi int, stepMix uint64, out []fastEvent) []fastEvent {
	lam := st.lam[gi]
	if lam <= 0 {
		return out // a bound of 0 leaves an exact λ of 0
	}
	g := st.groupList[gi]
	h := rng.StreamHash(g.key, stepMix)
	if lam < 30 && rng.FirstFloat64(h) <= 1-lam {
		return out
	}
	if g.stamp != st.rateStamp {
		st.evalGroup(gi)
		if lam = st.lam[gi]; lam <= 0 {
			return out
		}
	}
	r.SeedHash(h)
	var k uint64
	if lam < 30 {
		// Knuth inversion, with the squeeze above: the first uniform is
		// the head's, and e^{−λ} is priced only into group-ticks that
		// might fire. Draw consumption is identical either way.
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
		pick := int32(-1)
		sensor := false
		c := 0.0
		for ci := int32(0); ci < g.n; ci++ {
			ai := g.off + ci
			if rr := st.catRate[ai]; rr > 0 {
				c += rr
				pick, sensor = ci, false
				if u <= c {
					break
				}
			}
			if rs := st.catSens[ai]; rs > 0 {
				c += rs
				pick, sensor = ci, true
				if u <= c {
					break
				}
			}
		}
		if pick < 0 {
			continue // unreachable: λ > 0 implies a positive category
		}
		ai := g.off + pick
		comp := &st.comps[ai]
		if !sensor {
			j := r.Uint64n(uint64(st.catLive[ai]))
			out = append(out, fastEvent{victim: int32(st.victimRank(comp.data, int64(j), st.catRank[ai])), ci: pick})
		} else {
			dst := comp.sensors.Select(r.Uint64n(comp.sensors.Size()))
			out = append(out, fastEvent{victim: -1, ci: pick, dst: dst})
		}
	}
	return out
}

// victimRank returns the global live rank of the j-th live slot of a
// span-union pool: a scan of the pool's cumulative live counts picks the
// span, and the live rank at the span's start turns the within-span index
// into a global rank. The caller guarantees j is below the live pool size
// the arrival was priced with. rank0 is the rank at the first span's
// start, which evalGroup caches per component, so single-span pools never
// read the bitset; later spans ask the live index. Draws run after a
// rebuild's refresh and before any kill, so every start rank is the one
// the counts were computed against.
func (st *fastState) victimRank(d *compData, j, rank0 int64) int64 {
	for i, c := range d.cumLive {
		if j < c {
			if i > 0 {
				j -= d.cumLive[i-1]
				rank0 = int64(st.live.rank(int(d.spans[i].Lo)))
			}
			return rank0 + j
		}
	}
	panic("sim: victim index out of pool range")
}

// refreshPools brings every pool's live counts up to the current live
// index, touching only the pools that need it. Pools built since the last
// rebuild are counted from scratch. The sorted kill list then reaches the
// rest through the reverse index: each run that holds a kill lists the
// pools overlapping it, and applyKills updates each such pool once. A pool
// no kill reaches holds none in its spans, so its counts are still exact.
func (st *fastState) refreshPools() {
	for _, d := range st.compList[st.poolsLive:] {
		st.countPool(d)
	}
	st.poolsLive = len(st.compList)
	kills := st.killsTick
	for i := 0; i < len(kills); {
		r := st.runOf(kills[i])
		for e := st.runPools[r]; e != 0; e = st.poolLinks[e].next {
			if d := st.compList[st.poolLinks[e].pool]; d.stamp != st.rateStamp {
				st.applyKills(d)
			}
		}
		end := int32(st.live.n)
		if r+1 < len(st.runStart) {
			end = st.runStart[r+1]
		}
		i += countBelow(kills[i:], end)
	}
}

// countPool computes a pool's live counts from scratch: two ranks per span.
func (st *fastState) countPool(d *compData) {
	var c int64
	for i, sp := range d.spans {
		c += int64(st.live.rank(int(sp.Hi)) - st.live.rank(int(sp.Lo)))
		d.cumLive[i] = c
	}
	d.liveCt = c
	d.stamp = st.rateStamp
}

// applyKills subtracts the sorted kill list from a pool whose counts were
// exact before those kills: each span's live count drops by the kills
// inside it, an integer identity on the rank function, so the result
// matches countPool exactly. Spans and kills are both sorted, so each
// span's kills are found by binary search past the previous span's.
func (st *fastState) applyKills(d *compData) {
	kills := st.killsTick
	var inside int64
	c := 0
	for i, sp := range d.spans {
		lo := c + countBelow(kills[c:], sp.Lo)
		c = lo + countBelow(kills[lo:], sp.Hi)
		inside += int64(c - lo)
		d.cumLive[i] -= inside
	}
	d.liveCt -= inside
	d.stamp = st.rateStamp
}

// countBelow returns how many entries of the ascending s are below v.
func countBelow(s []int32, v int32) int {
	n, _ := slices.BinarySearch(s, v)
	return n
}

// stampKills writes killTime as the infection time of every host killed
// since the last rate rebuild.
func (st *fastState) stampKills() {
	for _, s := range st.killsTick {
		st.infTime[s] = st.killTime
	}
}

// rebuildRates brings the intensity cache up to the current live index
// and delivery probability. It refreshes the live index and the live
// counts of the pools that are new or hold a kill (refreshPools), then
// evaluates exactly only the groups that need it: the dirty ones, or all
// of them when tickDeliver moved. Every other group keeps its last exact
// λ, which stays an upper bound on its current exact λ, and drawGroup
// evaluates it only on a tick whose gate might fire. Apart from the live
// index's O(blocks) refresh and the probe sum's O(groups) pass, a rebuild
// costs O(kills + spans of the pools they reach + dirty groups).
//
// The bound holds because, with a group's infected count p and the
// delivery probability d fixed, its exact λ can only fall. Live counts only
// fall (the live index kills and never revives). Each category rate
// ((p·w)·live)·d is a product of non-negative floats, and IEEE-754
// rounding is monotone, so it falls or holds as live falls; so does λ,
// their fixed-order sum, and 1−λ can only rise. The rule that keeps this
// true: any path that raises a live count, a group's infected count, a
// component weight or the delivery probability must mark the groups it
// touches dirty, or re-evaluate them all.
//
// probesTotal is the in-order sum of infected·perHost, so it stays exact.
// lamTotal is the in-order sum of the stored bounds. It steers only
// cutShards, which cannot change output, but cutShards balances the
// shards only when it is the sum of the very lam column it cuts: a
// running total that drifts above that sum, as one kept by adding each
// evaluation's change does once drawGroup's lazy evaluations lower
// terms, leaves the later shards nearly empty.
func (st *fastState) rebuildRates(tickDeliver float64) {
	st.lam = grow(st.lam, len(st.groupList))
	st.groupProbes = grow(st.groupProbes, len(st.groupList))
	st.catRate = grow(st.catRate, len(st.comps))
	st.catSens = grow(st.catSens, len(st.comps))
	st.catLive = grow(st.catLive, len(st.comps))
	st.catRank = grow(st.catRank, len(st.comps))
	st.rateStamp++
	st.live.refresh()
	st.killSort.sort(st.killsTick)
	st.stampKills()
	st.refreshPools()
	//lint:ignore float-eq exact cache key: a group's bound holds only against the exact delivery float it was evaluated with
	all := tickDeliver != st.cachedDeliver
	st.cachedDeliver = tickDeliver
	if all {
		for gi := range st.groupList {
			st.evalGroup(gi)
		}
	} else {
		for _, gi := range st.dirtyGroups {
			st.evalGroup(int(gi))
		}
	}
	// Both sums run in group order over two dense columns, in locals so
	// they stay in registers; the chains are independent, so the pass
	// costs about one add latency per group.
	var probes, lamSum float64
	lam := st.lam[:len(st.groupProbes)]
	for gi, p := range st.groupProbes {
		probes += p
		lamSum += lam[gi]
	}
	st.probesTotal, st.lamTotal = probes, lamSum
	st.dirtyGroups = st.dirtyGroups[:0]
	st.killsTick = st.killsTick[:0]
	st.rateValid = true
}

// evalGroup computes group gi's exact arrival intensity against the pools'
// current live geometry and the cached delivery probability. λ is summed
// once, in fixed category order (infection then sensor, per component, in
// component order) — the categorical scan in drawGroup accumulates the
// same terms in the same order, so the two agree bit-for-bit. It writes
// only gi's own entries, so phase-1 shards may call it concurrently.
func (st *fastState) evalGroup(gi int) {
	g := st.groupList[gi]
	perHost := st.cfg.ScanRate * st.cfg.TickSeconds
	p := float64(g.infected) * perHost
	st.groupProbes[gi] = p
	lam := 0.0
	for ci := int32(0); ci < g.n; ci++ {
		ai := g.off + ci
		comp := &st.comps[ai]
		liveCt := comp.data.liveCt
		st.catLive[ai] = liveCt
		rr := 0.0
		if comp.weightOverSet > 0 && liveCt > 0 {
			rr = p * comp.weightOverSet * float64(liveCt) * st.cachedDeliver
			st.catRank[ai] = int64(st.live.rank(int(comp.data.spans[0].Lo)))
		}
		st.catRate[ai] = rr
		lam += rr
		rs := 0.0
		if comp.pSensor > 0 {
			rs = p * comp.pSensor * st.cachedDeliver
		}
		st.catSens[ai] = rs
		lam += rs
	}
	st.lam[gi] = lam
	g.stamp = st.rateStamp
	g.dirty = false
}

// slotSorter sorts a tick's kill list. The hottest internet-scale ticks
// kill ~3·10⁶ slots; sorting those by comparison takes ~1 s of a
// 10⁷-host outbreak, so long lists take a two-pass LSD radix sort over
// the 16-bit halves of the slot (~0.1 s). Short ones (the paper-scale
// common case) fall back to slices.Sort rather than clear the
// histograms. Scratch is kept at its high-water size across calls.
type slotSorter struct {
	tmp    []int32
	counts []int32 // two 1<<16 histograms: low half, then high half
}

// sort sorts s ascending in place. Every value must be a non-negative
// int32, which checkSlotCeiling guarantees for slots.
func (z *slotSorter) sort(s []int32) {
	if len(s) < 1<<12 {
		slices.Sort(s)
		return
	}
	if cap(z.tmp) < len(s) {
		z.tmp = make([]int32, len(s))
	}
	tmp := z.tmp[:len(s)]
	if z.counts == nil {
		z.counts = make([]int32, 2<<16)
	} else {
		clear(z.counts)
	}
	lo, hi := z.counts[:1<<16], z.counts[1<<16:]
	for _, x := range s {
		lo[x&0xffff]++
		hi[x>>16]++
	}
	prefixSums(lo)
	prefixSums(hi)
	for _, x := range s {
		d := x & 0xffff
		tmp[lo[d]] = x
		lo[d]++
	}
	for _, x := range tmp {
		d := x >> 16
		s[hi[d]] = x
		hi[d]++
	}
}

// prefixSums turns bucket counts into bucket start offsets in place.
func prefixSums(counts []int32) {
	var sum int32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
}

// grow extends a per-group/per-comp cache array to n entries, preserving
// existing ones: unchanged groups skip recomputation in rebuildRates and
// keep reading their prior values in place.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n, n+n/2+8)
	copy(ns, s)
	return ns
}

// closeFastTickOutcomes closes one fast-driver tick's probe accounting.
// Infections, sensor hits, and sensor-down landings are the realized draws
// from the tick loop; the burst-loss and loss/containment shares are closed
// with their expectations, and delivered absorbs the residual. Realized
// Poisson draws are not bounded by the tick's expected probe count — in a
// small-probes tick they can overshoot it — so the probe total widens to
// the realized sum in that case, keeping the conservation invariant
// Outcomes.Total() == Probes unconditional.
func closeFastTickOutcomes(probes float64, newInf int, sensorDraws, sensorDown uint64, deliver, burstLoss float64) (uint64, OutcomeCounts) {
	var outcomes OutcomeCounts
	outcomes[OutcomeInfection] = uint64(newInf)
	outcomes[OutcomeSensorHit] = sensorDraws
	outcomes[OutcomeSensorDown] = sensorDown
	probesEmitted := uint64(probes)
	used := outcomes[OutcomeInfection] + outcomes[OutcomeSensorHit] + outcomes[OutcomeSensorDown]
	if used > probesEmitted {
		probesEmitted = used
	}
	rest := probesEmitted - used
	burstLost := uint64(probes*burstLoss + 0.5)
	if burstLost > rest {
		burstLost = rest
	}
	outcomes[OutcomeBurstLost] = burstLost
	rest -= burstLost
	filtered := uint64(probes*(1-burstLoss)*(1-deliver) + 0.5)
	if filtered > rest {
		filtered = rest
	}
	outcomes[OutcomeFiltered] = filtered
	outcomes[OutcomeDelivered] = rest - filtered
	return probesEmitted, outcomes
}

// newFastState builds the group runs and the live index for a validated
// IPv4 config, with every host uninfected. Nothing here is per-host but
// the infection times and the live and claimed bitsets.
func newFastState(cfg FastConfig) *fastState {
	n := cfg.Pop.Size()
	st := &fastState{
		cfg:       cfg,
		pop:       cfg.Pop,
		groups:    make(map[uint64]*fastGroup),
		compCache: make(map[compKey]*compData),
		live:      newLiveIndex(n),
		infTime:   make([]float64, n),
		claimed:   make([]uint64, (n+63)/64),
	}
	for i := range st.infTime {
		st.infTime[i] = -1
	}
	st.indexRuns()
	return st
}

// indexRuns records the group runs in one pass over the hosts in slot
// order. A run may cross from the public hosts into a site, or from one
// site into the next, when the key does not change there.
func (st *fastState) indexRuns() {
	var key uint64
	for s := 0; s < st.pop.Size(); s++ {
		k := st.cfg.Model.GroupKey(st.pop.Host(s))
		if s == 0 || k != key {
			st.runStart = append(st.runStart, int32(s))
			key = k
		}
	}
	st.runGroup = make([]*fastGroup, len(st.runStart))
	st.runPools = make([]int32, len(st.runStart))
	st.poolLinks = make([]poolLink, 1)
	st.runBlock = make([]int32, st.live.blocks)
	r := 0
	for b := range st.runBlock {
		for r+1 < len(st.runStart) && int(st.runStart[r+1]) <= b*liveBlockSlots {
			r++
		}
		st.runBlock[b] = int32(r)
	}
}

// runOf returns the index of the group run holding slot s: a binary search
// among the runs that overlap s's live-index block, which the block table
// bounds to [runBlock[b], runBlock[b+1]].
func (st *fastState) runOf(s int32) int {
	b := int(s) / liveBlockSlots
	lo, hi := int(st.runBlock[b]), len(st.runStart)
	if b+1 < len(st.runBlock) {
		hi = int(st.runBlock[b+1]) + 1
	}
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); st.runStart[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// buildComps materializes the fast components for a host's group into the
// shared flattened comps slice, returning the group's [off, off+n) span.
func (st *fastState) buildComps(h population.Host) (off, n int32) {
	comps := st.cfg.Model.Components(h)
	off = int32(len(st.comps))
	for _, c := range comps {
		site := population.NoSite
		if c.Private {
			site = h.Site
		}
		data := st.compDataFor(c.Set, site)
		setSize := float64(data.setSize)
		fc := fastComp{data: data}
		if setSize > 0 {
			fc.weightOverSet = c.Weight / setSize
		}
		if !c.Private && st.cfg.Sensors != nil && data.sensorSize > 0 && setSize > 0 {
			fc.pSensor = c.Weight * float64(data.sensorSize) / setSize
			fc.sensors = data.sensorInter
		}
		st.comps = append(st.comps, fc)
	}
	return off, int32(len(st.comps)) - off
}

// compDataFor computes (and caches) the pool spans and sensor intersection
// for a component set, optionally restricted to one NAT site. Spans cover
// every host in the set regardless of infection state — liveness lives in
// the shared index — so the result is immutable.
func (st *fastState) compDataFor(set *ipv4.Set, site int) *compData {
	key := compKey{set: set, site: site}
	if d, ok := st.compCache[key]; ok {
		return d
	}
	d := &compData{setSize: set.Size()}
	// A private component draws from its own site's region, where every
	// address is reachable (hard blocks apply to Internet paths only).
	eff := set
	if site == population.NoSite && st.cfg.BlockedDst != nil {
		eff = set.Subtract(st.cfg.BlockedDst)
	}
	addrs, lo := st.pop.Region(site)
	d.spans = topo.VictimSpans(addrs, int32(lo), eff, d.spans)
	d.cumLive = make([]int64, len(d.spans))
	if site == population.NoSite && st.cfg.Sensors != nil && st.cfg.SensorSet != nil {
		// Phase-1 workers Select from the embedded set concurrently;
		// EmbedSensors freezes its lazy indexes while construction is
		// still serial.
		inter := topo.EmbedSensors(st.cfg.SensorSet, set, st.cfg.BlockedDst)
		d.sensorInter = inter
		d.sensorSize = inter.Size()
	}
	st.compCache[key] = d
	st.indexPool(int32(len(st.compList)), d.spans)
	st.compList = append(st.compList, d)
	return d
}

// indexPool enters pool into the reverse index of every run its spans
// overlap. Spans are sorted, so a run two spans share is entered once.
func (st *fastState) indexPool(pool int32, spans []slotSpan) {
	last := -1
	for _, sp := range spans {
		for r := max(st.runOf(sp.Lo), last+1); r <= st.runOf(sp.Hi-1); r++ {
			st.poolLinks = append(st.poolLinks, poolLink{pool: pool, next: st.runPools[r]})
			st.runPools[r] = int32(len(st.poolLinks) - 1)
			last = r
		}
	}
}
