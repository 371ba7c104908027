package xcheck

import (
	"fmt"
	"sort"

	"repro/internal/epidemic"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Oracle names, used to label violations and to let the shrinker hold a
// reproduction to the oracle that originally fired.
const (
	OracleByteIdentity = "byte-identity"  // Workers=1 vs Workers=N + JSON round-trip
	OracleFastIdentity = "fast-identity"  // fast driver: Workers=1 vs N
	OracleInvariant    = "invariant"      // conservation, monotonicity, consistency
	OracleFleet        = "fleet"          // sensor accounting vs outcome counts
	OracleDifferential = "differential"   // exact vs fast trajectories
	OracleAnalytic     = "analytic"       // SI model tracking + FitBeta recovery
	OracleTreeSize     = "tree-size"      // trace reconstructs a tree covering every infection
	OracleTreeTime     = "tree-time"      // edge times match and respect infection order
	OracleTreeEdge     = "tree-adjacency" // graph worlds: every edge is a world adjacency, sensors stay clean
)

// Violation is one oracle failure.
type Violation struct {
	// Oracle names the oracle family that fired (Oracle* constants).
	Oracle string `json:"oracle"`
	// Detail is a human-readable account of the disagreement.
	Detail string `json:"detail"`
}

// Report is the outcome of cross-checking one scenario.
type Report struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations,omitempty"`
	// Run statistics, for eyeballing batch health.
	FinalInfected int    `json:"final_infected"`
	Probes        uint64 `json:"probes"`
	Ticks         int    `json:"ticks"`
	Differential  bool   `json:"differential"`
	Analytic      bool   `json:"analytic"`

	// traces retains every run's flight recorder so a failing report can
	// dump them with provenance manifests (see WriteTraceArtifacts).
	traces []namedTrace
}

// Ok reports whether every oracle passed.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) addf(oracle, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// Differential-oracle replica count: the fast driver runs this many times
// under derived seeds, and the exact trajectory must land inside the
// replica envelope widened by tolerance factors.
const fastReplicas = 3

// Tolerances. The differential and analytic oracles compare stochastic
// processes, so they accept bounded disagreement; the bounds are tuned so
// seeded batches (see cmd/xcheck) run clean while injected bugs — broken
// accounting, skewed rates, garbage fits — still land far outside.
const (
	trajRatioSlack  = 1.7 // exact vs fast time-to-fraction envelope factor
	sensorRateBand  = 2.0 // exact vs fast sensor-hit-rate ratio bound
	minSensorHits   = 100 // below this, sensor rates are too noisy to compare
	analyticHalfLo  = 0.5 // measured/predicted half-time ratio window
	analyticHalfHi  = 2.0
	fitBetaRatioLo  = 0.55 // recovered/configured β ratio window
	fitBetaRatioHi  = 1.8
	minFitPoints    = 5    // FitBeta informative-point floor
	comfortFraction = 0.65 // "reached comfortably before the horizon" bound
)

// CheckScenario expands, runs, and audits one scenario. The returned error
// covers harness failures (invalid scenario, driver refusing the config);
// oracle disagreements land in the report's Violations.
func CheckScenario(sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	a, err := build(&sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: sc}

	// Reference run: exact driver, serial.
	ref, err := runExact(&sc, a, 1)
	if err != nil {
		return nil, err
	}
	rep.FinalInfected = ref.res.Final.Infected
	rep.Ticks = len(ref.res.Series)
	for _, ti := range ref.res.Series {
		rep.Probes += ti.Probes
	}

	// Byte-identity: rebuild everything from the scenario's JSON (corpus
	// and report round-trip) and run with the scenario's worker count.
	// Identical bytes prove worker-count invariance, replayability, and
	// that serialization loses nothing.
	sc2, err := ParseScenario(sc.JSON())
	if err != nil {
		rep.addf(OracleByteIdentity, "scenario JSON does not round-trip: %v", err)
	} else if err := sc2.Validate(); err != nil {
		rep.addf(OracleByteIdentity, "scenario invalid after JSON round-trip: %v", err)
	} else {
		a2, err := build(&sc2)
		if err != nil {
			return nil, err
		}
		again, err := runExact(&sc2, a2, sc2.Workers)
		if err != nil {
			return nil, err
		}
		if s1, s2 := serializeRun(ref), serializeRun(again); s1 != s2 {
			rep.addf(OracleByteIdentity,
				"Workers=1 and Workers=%d runs differ after JSON round-trip: %s",
				sc2.Workers, firstDiff(s1, s2))
		}
	}

	checkInvariants(rep, "exact", ref.res, a.size())
	checkFleet(rep, "exact", &sc, ref)
	checkTree(rep, "exact", ref)
	checkTreeAdjacency(rep, "exact", a, ref)
	rep.keepTrace("exact", "exact", sc.SimSeed, 1, ref.trace)

	if a.graph != nil {
		// Graph worlds get the fast driver's full self-contract audit —
		// invariants, provenance trees over true infectors, and identity
		// across worker counts — but no trajectory
		// differential: replica seeds choose different seed nodes, and on
		// a spatial world different outbreak origins legitimately produce
		// different curves, so an envelope over replicas has no meaning.
		seed := fastReplicaSeed(sc.SimSeed, 0)
		fr, err := runFast(&sc, a, seed, 1)
		if err != nil {
			return nil, err
		}
		checkInvariants(rep, "fast", fr.res, a.size())
		checkTree(rep, "fast", fr)
		checkTreeAdjacency(rep, "fast", a, fr)
		rep.keepTrace("fast0", "fast", seed, 0, fr.trace)
		if err := checkFastIdentity(rep, &sc, a, fr); err != nil {
			return nil, err
		}
		return rep, nil
	}

	if sc.Differential() && a.model != nil {
		fasts := make([]*runOutput, 0, fastReplicas)
		for i := 0; i < fastReplicas; i++ {
			seed := fastReplicaSeed(sc.SimSeed, i)
			fr, err := runFast(&sc, a, seed, 1)
			if err != nil {
				return nil, err
			}
			checkInvariants(rep, fmt.Sprintf("fast[%d]", i), fr.res, a.size())
			checkFleet(rep, fmt.Sprintf("fast[%d]", i), &sc, fr)
			checkTree(rep, fmt.Sprintf("fast[%d]", i), fr)
			rep.keepTrace(fmt.Sprintf("fast%d", i), "fast", seed, 0, fr.trace)
			fasts = append(fasts, fr)
		}
		if err := checkFastIdentity(rep, &sc, a, fasts[0]); err != nil {
			return nil, err
		}
		checkDifferential(rep, &sc, ref, fasts)
		rep.Differential = true
	}

	if sc.Analytic() && a.hitCover >= 1 {
		checkAnalytic(rep, &sc, a, ref)
		rep.Analytic = true
	}
	return rep, nil
}

// checkFastIdentity audits the fast driver's own determinism contract: its
// Workers count is a throughput knob, so re-running the first replica with
// parallel workers must reproduce its serialized output byte for byte.
func checkFastIdentity(rep *Report, sc *Scenario, a *artifacts, serial *runOutput) error {
	fw := sc.FastWorkers
	if fw < 2 {
		fw = 2 // pre-field corpus seeds still get a parallel check
	}
	again, err := runFast(sc, a, fastReplicaSeed(sc.SimSeed, 0), fw)
	if err != nil {
		return err
	}
	if got, want := serializeRun(again), serializeRun(serial); got != want {
		rep.addf(OracleFastIdentity,
			"fast run with Workers=%d diverged from the serial fast run: %s",
			fw, firstDiff(want, got))
	}
	return nil
}

// checkInvariants audits the unconditional per-run properties.
func checkInvariants(rep *Report, label string, res *sim.Result, popSize int) {
	prev := -1
	for i, ti := range res.Series {
		if got := ti.Outcomes.Total(); got != ti.Probes {
			rep.addf(OracleInvariant, "%s tick %d: outcomes sum to %d, probes %d", label, i, got, ti.Probes)
			break
		}
		if prev >= 0 && ti.Infected < prev {
			rep.addf(OracleInvariant, "%s tick %d: infected fell %d → %d", label, i, prev, ti.Infected)
			break
		}
		if prev >= 0 && ti.Infected-prev != ti.NewInfections {
			rep.addf(OracleInvariant, "%s tick %d: delta %d but NewInfections %d", label, i, ti.Infected-prev, ti.NewInfections)
			break
		}
		if ti.Infected > popSize {
			rep.addf(OracleInvariant, "%s tick %d: infected %d > population %d", label, i, ti.Infected, popSize)
			break
		}
		prev = ti.Infected
	}
	var cum sim.OutcomeCounts
	for _, ti := range res.Series {
		cum.Merge(ti.Outcomes)
	}
	if cum != res.Outcomes {
		rep.addf(OracleInvariant, "%s: cumulative outcomes %v != tick sum %v", label, res.Outcomes, cum)
	}
	if n := len(res.Series); n > 0 && res.Series[n-1] != res.Final {
		rep.addf(OracleInvariant, "%s: Final does not match last tick", label)
	}
	recorded := 0
	for _, it := range res.InfectionTime {
		if it >= 0 {
			recorded++
		}
	}
	if recorded != res.Final.Infected {
		rep.addf(OracleInvariant, "%s: %d infection times for %d infected", label, recorded, res.Final.Infected)
	}
}

// checkTree audits the run's flight recorder against its result: the
// infection events must reconstruct into a provenance tree that covers
// every infection exactly once (tree-size family), with every edge's time
// equal to the victim's recorded infection time and strictly after the
// infector's own infection (tree-time family). Seeds must be rooted at
// t=0. One violation per family per run is enough to localize the bug.
func checkTree(rep *Report, label string, out *runOutput) {
	if out.trace == nil {
		return
	}
	tree, err := trace.BuildTree(out.trace.Events())
	if err != nil {
		rep.addf(OracleTreeSize, "%s: trace does not reconstruct a tree: %v", label, err)
		return
	}
	if got, want := tree.Size(), out.res.Final.Infected; got != want {
		rep.addf(OracleTreeSize, "%s: tree covers %d hosts, run infected %d", label, got, want)
	}
	for _, id := range tree.Seeds {
		//lint:ignore float-eq seeds are stored at exactly t=0, and the oracle checks that identity bit for bit
		if id >= len(out.res.InfectionTime) || out.res.InfectionTime[id] != 0 {
			rep.addf(OracleTreeTime, "%s: seed %d not recorded as infected at t=0", label, id)
			return
		}
	}
	for _, e := range tree.Edges {
		if e.Victim >= len(out.res.InfectionTime) {
			rep.addf(OracleTreeTime, "%s: edge victim %d outside population", label, e.Victim)
			return
		}
		//lint:ignore float-eq the trace edge and InfectionTime store the same float; the oracle asserts bit-exact identity, which a tolerance would weaken
		if it := out.res.InfectionTime[e.Victim]; it != e.T {
			rep.addf(OracleTreeTime,
				"%s: edge infects %d at t=%v but InfectionTime says %v", label, e.Victim, e.T, it)
			return
		}
		if e.Infector >= 0 {
			if e.Infector >= len(out.res.InfectionTime) {
				rep.addf(OracleTreeTime, "%s: infector %d outside population", label, e.Infector)
				return
			}
			pt := out.res.InfectionTime[e.Infector]
			if pt < 0 || pt >= e.T {
				rep.addf(OracleTreeTime,
					"%s: edge %d→%d at t=%v but infector's own infection is at %v",
					label, e.Infector, e.Victim, e.T, pt)
				return
			}
		}
	}
}

// checkTreeAdjacency audits graph-world provenance (tree-adjacency
// family): on a neighbor graph both drivers record true infectors, so
// every non-seed edge must carry an attributed infector and connect two
// adjacent nodes of the world, and no sensor node may appear anywhere
// in the tree — not as a victim, and not as a seed. One violation per
// run localizes the bug.
func checkTreeAdjacency(rep *Report, label string, a *artifacts, out *runOutput) {
	if a.graph == nil || out.trace == nil {
		return
	}
	tree, err := trace.BuildTree(out.trace.Events())
	if err != nil {
		return // the tree-size family already reported this
	}
	g := a.graph
	for _, id := range tree.Seeds {
		if id >= 0 && id < g.Nodes() && g.IsSensor(id) {
			rep.addf(OracleTreeEdge, "%s: sensor node %d seeded the outbreak", label, id)
			return
		}
	}
	for _, e := range tree.Edges {
		if e.Infector < 0 {
			rep.addf(OracleTreeEdge,
				"%s: graph infection of %d has no attributed infector", label, e.Victim)
			return
		}
		if e.Victim >= 0 && e.Victim < g.Nodes() && g.IsSensor(e.Victim) {
			rep.addf(OracleTreeEdge, "%s: sensor node %d was infected", label, e.Victim)
			return
		}
		if !graphAdjacent(g, e.Infector, e.Victim) {
			rep.addf(OracleTreeEdge,
				"%s: infection edge %d→%d is not an adjacency of the world", label, e.Infector, e.Victim)
			return
		}
	}
}

// graphAdjacent reports whether v appears in u's sorted neighbor list.
func graphAdjacent(g topo.Graph, u, v int) bool {
	if u < 0 || u >= g.Nodes() || v < 0 || v >= g.Nodes() {
		return false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return int(nbrs[i]) >= v })
	return i < len(nbrs) && int(nbrs[i]) == v
}

// checkFleet audits sensor accounting: the fleet's recorded hits must
// equal the run's cumulative sensor-hit outcomes — every monitored probe
// classified as a sensor hit reaches the fleet exactly once — except under
// duplicated reporting, where each hit may arrive twice.
func checkFleet(rep *Report, label string, sc *Scenario, out *runOutput) {
	if out.fleet == nil {
		return
	}
	hits := out.fleet.TotalHits()
	outcomes := out.res.Outcomes[sim.OutcomeSensorHit]
	dup := sc.Faults != nil && sc.Faults.Reporting != nil && sc.Faults.Reporting.DupProb > 0
	switch {
	case !dup && hits != outcomes:
		rep.addf(OracleFleet, "%s: fleet recorded %d hits, outcomes say %d", label, hits, outcomes)
	case dup && (hits < outcomes || hits > 2*outcomes):
		rep.addf(OracleFleet, "%s: fleet recorded %d hits outside [%d,%d] under duplication", label, hits, outcomes, 2*outcomes)
	}
}

// checkDifferential compares the exact trajectory against the fast-replica
// envelope at two prevalence thresholds, plus the sensor-hit rate when
// there is enough signal.
func checkDifferential(rep *Report, sc *Scenario, ref *runOutput, fasts []*runOutput) {
	comfort := comfortFraction * sc.MaxSeconds
	for _, f := range [...]float64{0.3, 0.6} {
		te, okE := ref.res.TimeToFraction(f)
		var lo, hi float64
		reached := 0
		for _, fr := range fasts {
			tf, ok := fr.res.TimeToFraction(f)
			if !ok {
				continue
			}
			if reached == 0 || tf < lo {
				lo = tf
			}
			if reached == 0 || tf > hi {
				hi = tf
			}
			reached++
		}
		switch {
		case okE && reached == len(fasts):
			if te > hi*trajRatioSlack+2*sc.TickSeconds || te < lo/trajRatioSlack-2*sc.TickSeconds {
				rep.addf(OracleDifferential,
					"time to %.0f%%: exact %.4gs outside fast envelope [%.4g,%.4g]s ×%.2g",
					100*f, te, lo, hi, trajRatioSlack)
			}
		case okE && reached == 0 && te < comfort:
			rep.addf(OracleDifferential,
				"exact reached %.0f%% at %.4gs but no fast replica ever did", 100*f, te)
		case !okE && reached == len(fasts) && hi < comfort:
			rep.addf(OracleDifferential,
				"every fast replica reached %.0f%% by %.4gs but exact never did", 100*f, hi)
		}
	}

	// Sensor-hit rate: per-probe monitored-landing rates must agree across
	// drivers when the expected counts are large enough to compare.
	if ref.fleet != nil {
		exactHits := ref.res.Outcomes[sim.OutcomeSensorHit] + ref.res.Outcomes[sim.OutcomeSensorDown]
		var fastHits uint64
		for _, fr := range fasts {
			fastHits += fr.res.Outcomes[sim.OutcomeSensorHit] + fr.res.Outcomes[sim.OutcomeSensorDown]
		}
		meanFast := float64(fastHits) / float64(len(fasts))
		if exactHits >= minSensorHits && meanFast >= minSensorHits {
			if r := float64(exactHits) / meanFast; r > sensorRateBand || r < 1/sensorRateBand {
				rep.addf(OracleDifferential,
					"sensor landings: exact %d vs fast mean %.1f (ratio %.2f)", exactHits, meanFast, r)
			}
		}
	}
}

// checkAnalytic compares the exact run against the closed-form SI model
// (β = rate·N/Ω with Ω the hit-list size) and asserts FitBeta recovers the
// configured β from the simulated curve.
func checkAnalytic(rep *Report, sc *Scenario, a *artifacts, ref *runOutput) {
	omega := float64(a.hitList.Size())
	si, err := epidemic.NewSI(sc.ScanRate, sc.PopSize, sc.SeedHosts, omega)
	if err != nil {
		rep.addf(OracleAnalytic, "SI model rejected scenario parameters: %v", err)
		return
	}
	predicted, err := si.TimeToFraction(0.5)
	if err == nil && predicted < comfortFraction*sc.MaxSeconds {
		measured, ok := ref.res.TimeToFraction(0.5)
		switch {
		case !ok:
			rep.addf(OracleAnalytic,
				"SI predicts 50%% at %.4gs but the run never got there (final %d/%d)",
				predicted, ref.res.Final.Infected, sc.PopSize)
		default:
			if r := measured / predicted; r < analyticHalfLo || r > analyticHalfHi {
				rep.addf(OracleAnalytic,
					"half-infection at %.4gs, SI predicts %.4gs (ratio %.2f)", measured, predicted, r)
			}
		}
	}

	times := make([]float64, len(ref.res.Series))
	infected := make([]float64, len(ref.res.Series))
	for i, ti := range ref.res.Series {
		times[i] = ti.Time
		infected[i] = float64(ti.Infected)
	}
	beta, n, err := testFitBeta(times, infected, float64(sc.PopSize))
	if err != nil || n < minFitPoints {
		return // not enough curve to fit; nothing to audit
	}
	if r := beta / si.Beta; r < fitBetaRatioLo || r > fitBetaRatioHi {
		rep.addf(OracleAnalytic,
			"FitBeta recovered %.4g, configured β=%.4g (ratio %.2f, %d points)", beta, si.Beta, r, n)
	}
}

// firstDiff locates the first line where two serialized runs disagree.
func firstDiff(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
