package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeTrace is the interprocedural nondeterminism-taint analyzer. Sources —
// map and sync.Map iteration whose order leaks, multi-case selects,
// unseeded randomness, wall-clock reads, and goroutine-completion
// ordering — taint the function containing them; taint propagates through
// the module call graph, and any source reachable from a
// determinism-contract root (sim.RunExact, sim.RunFast, sweep.Run/Map*,
// xcheck.CheckScenario/Shrink) is reported at the source with the call
// path that connects them.
//
// A source is discharged by a recognized sort-before-use (collected
// entries sorted later in the same function, or an order-insensitive
// body: integer/boolean aggregation and per-key element writes), or by an
// explicit annotation attached to its statement:
//
//	//lint:deterministic <why>
//
// The why is mandatory; a bare directive is itself reported (rule
// "lint-deterministic").
var DeTrace = &Analyzer{
	Name: "detrace",
	Doc:  "nondeterminism sources (map order, select, randomness, wall clock, goroutine order) reaching the determinism-contract roots",
	Run:  runDeTrace,
}

// detraceRoots are the determinism-contract entry points: every byte of
// their output must be a pure function of configuration and seed.
var detraceRoots = []struct{ rel, name string }{
	{"internal/sim", "RunExact"},
	{"internal/sim", "RunFast"},
	{"internal/sweep", "Run"},
	{"internal/sweep", "Map"},
	{"internal/sweep", "MapResults"},
	{"internal/sweep", "MapCheckpointed"},
	{"internal/xcheck", "CheckScenario"},
	{"internal/xcheck", "Shrink"},
}

// randPkgs are the packages whose package-level state (or entropy pool)
// makes every draw unseeded and irreproducible.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// dtFinding is one pre-computed detrace finding, stored per file so the
// per-file analyzer pass can replay it through the suppression filter.
type dtFinding struct {
	node ast.Node
	msg  string
}

func runDeTrace(pass *Pass) {
	for _, f := range pass.Program.detraceFindings()[pass.File] {
		pass.Report(f.node, "%s", f.msg)
	}
}

// detraceFindings computes (once) the whole-module taint result.
func (prog *Program) detraceFindings() map[*File][]dtFinding {
	//lint:ignore lazyinit a Program is analyzed on a single goroutine; reprolint never shares one across workers
	if prog.detraceOnce {
		return prog.detraceRes
	}
	prog.detraceOnce = true
	prog.detraceRes = make(map[*File][]dtFinding)

	g := prog.CallGraph()
	var roots []*FuncNode
	for _, r := range detraceRoots {
		roots = append(roots, g.Lookup(r.rel, r.name)...)
	}
	if len(roots) == 0 {
		return prog.detraceRes
	}
	parent := g.ReachableFrom(roots)

	reachable := make([]*FuncNode, 0, len(parent))
	for n := range parent {
		reachable = append(reachable, n)
	}
	sort.Slice(reachable, func(i, j int) bool {
		return reachable[i].Name() < reachable[j].Name()
	})
	for _, n := range reachable {
		for _, src := range nondetSources(prog, n) {
			msg := fmt.Sprintf("%s; taints determinism root %s (%s)",
				src.msg, pathRoot(parent, n), abbreviatedPath(parent, n))
			prog.detraceRes[n.File] = append(prog.detraceRes[n.File], dtFinding{node: src.node, msg: msg})
		}
	}
	return prog.detraceRes
}

// pathRoot walks the BFS parent chain back to the discovering root.
func pathRoot(parent map[*FuncNode]*FuncNode, n *FuncNode) string {
	at := n
	for parent[at] != nil {
		at = parent[at]
	}
	return at.Name()
}

// abbreviatedPath renders the call chain root → … → n, eliding the middle
// of long chains.
func abbreviatedPath(parent map[*FuncNode]*FuncNode, n *FuncNode) string {
	var names []string
	for at := n; at != nil; at = parent[at] {
		names = append(names, at.Name())
		if parent[at] == nil {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	if len(names) > 5 {
		names = append(names[:2], append([]string{"…"}, names[len(names)-2:]...)...)
	}
	return strings.Join(names, " → ")
}

// ndSource is one undischarged nondeterminism source inside a function.
type ndSource struct {
	node ast.Node
	msg  string
}

// nondetSources scans one function body for sources, applying the
// discharges (order-insensitive map bodies, sort-before-use, and
// //lint:deterministic annotations).
func nondetSources(prog *Program, n *FuncNode) []ndSource {
	var out []ndSource
	pkg, file, body := n.Pkg, n.File, n.Decl.Body
	line := func(nd ast.Node) int { return prog.Fset.Position(nd.Pos()).Line }

	hasGo := false
	var loopBodies []*ast.BlockStmt
	selRecv := make(map[ast.Node]bool) // receives that are select comm clauses (the select itself is the source)
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.GoStmt:
			hasGo = true
		case *ast.ForStmt:
			loopBodies = append(loopBodies, s.Body)
		case *ast.RangeStmt:
			loopBodies = append(loopBodies, s.Body)
		case *ast.CommClause:
			switch comm := s.Comm.(type) {
			case *ast.ExprStmt:
				selRecv[comm.X] = true
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					selRecv[rhs] = true
				}
			}
		}
		return true
	})
	inLoop := func(p token.Pos) bool {
		for _, b := range loopBodies {
			if b.Pos() <= p && p < b.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.RangeStmt:
			if file.Deterministic(line(s)) {
				return true
			}
			if isMapRange(pkg, s) {
				if issues := mapRangeIssues(pkg, s.Body, rangeIterVars(s), s.End(), body); len(issues) > 0 {
					out = append(out, ndSource{node: s, msg: "map iteration order leaks (" + issues[0].msg + ")"})
				}
			} else if isChanRange(pkg, s) && hasGo {
				out = append(out, ndSource{node: s, msg: "range over a channel fed by goroutines observes completion order"})
			}
		case *ast.SelectStmt:
			if len(s.Body.List) >= 2 && !file.Deterministic(line(s)) {
				out = append(out, ndSource{node: s, msg: fmt.Sprintf("select with %d cases resolves by channel readiness", len(s.Body.List))})
			}
			return true
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && hasGo && !selRecv[s] && inLoop(s.Pos()) && !file.Deterministic(line(s)) {
				out = append(out, ndSource{node: s, msg: "channel receive in a loop alongside spawned goroutines observes completion order"})
			}
		case *ast.CallExpr:
			if msg := callSource(pkg, file, s, line(s)); msg != "" {
				out = append(out, ndSource{node: s, msg: msg})
			}
		}
		return true
	})
	return out
}

// callSource classifies one call as a source: unseeded randomness,
// wall-clock reads, and sync.Map iteration.
func callSource(pkg *Package, file *File, call *ast.CallExpr, line int) string {
	sel, ok := unwrapFun(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if file.Deterministic(line) {
		return ""
	}
	// Qualified package calls: rand.X / time.X.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.ObjectOf(id).(*types.PkgName); ok {
			path := pn.Imported().Path()
			switch {
			case randPkgs[path]:
				return "unseeded randomness from " + path + "." + sel.Sel.Name
			case path == "time" && wallclockFuncs[sel.Sel.Name]:
				return "wall-clock dependence via time." + sel.Sel.Name
			}
		}
	}
	// sync.Map iteration: (*sync.Map).Range.
	if sel.Sel.Name == "Range" {
		if isSyncType(pkg.TypeOf(sel.X), "Map") {
			return "sync.Map iteration order leaks"
		}
	}
	return ""
}

// isChanRange reports whether rs ranges over a channel.
func isChanRange(pkg *Package, rs *ast.RangeStmt) bool {
	_, ok := pkg.TypeOf(rs.X).Underlying().(*types.Chan)
	return ok
}

// isSyncType reports whether t is sync.<name> or a pointer to it.
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}
