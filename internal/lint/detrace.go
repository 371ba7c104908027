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
// determinism-contract root (DeTraceRoots) is reported at the source with
// the call path that connects them. Randomness and the wall clock are
// judged by reachability alone: a call the roots cannot reach changes no
// byte they produce, so wall-clock telemetry in a CLI or server loop is
// not a finding.
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

// Root names a function by its package's module-relative path and its
// CallGraph.Lookup name.
type Root struct{ Rel, Name string }

// DeTraceRoots are the determinism-contract entry points: every byte of
// their output must be a pure function of configuration and seed. They
// cover both drivers, the sweep pool, the oracle harness, every paper
// experiment (RunObserved reaches each runner through Registry's map of
// function values) and hotspotd's one-shot result bytes.
var DeTraceRoots = []Root{
	{"internal/sim", "RunExact"},
	{"internal/sim", "RunFast"},
	{"internal/sweep", "Run"},
	{"internal/sweep", "Map"},
	{"internal/sweep", "MapResults"},
	{"internal/sweep", "MapCheckpointed"},
	{"internal/xcheck", "CheckScenario"},
	{"internal/xcheck", "Shrink"},
	{"internal/xcheck", "RunScenario"},
	{"internal/experiments", "RunObserved"},
	{"internal/serve", "OneShot"},
}

// randPkgs are the packages whose package-level state (or entropy pool)
// makes every draw unseeded and irreproducible: both math/rand
// generations (global state, Go-version-dependent streams) and
// crypto/rand (irreproducible by design). internal/rng is the only
// source of randomness a root may reach.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// wallclockFuncs are the package time functions that observe or depend on
// the wall clock. Pure constructors like time.Duration arithmetic are fine;
// simulated time advances only through the drivers' tick loops.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
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
	for _, r := range DeTraceRoots {
		roots = append(roots, g.Lookup(r.Rel, r.Name)...)
	}
	if len(roots) == 0 {
		return prog.detraceRes
	}
	// Package initialization runs before any root and hands it values:
	// the init functions of every package a root imports, directly or
	// not, start the walk too, and their var initializers are sources.
	inited := make(map[*Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		pkg := prog.checkedPkgs[p.Path()]
		if pkg == nil || inited[pkg] {
			return
		}
		inited[pkg] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, r := range roots {
		visit(r.Pkg.Types)
	}
	for _, pkg := range prog.Packages {
		if inited[pkg] {
			roots = append(roots, g.Lookup(pkg.Rel, "init")...)
			prog.initSources(pkg)
		}
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

// initSources records the sources in pkg's package-level var
// initializers.
func (prog *Program) initSources(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			ast.Inspect(gd, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				if msg := callSource(pkg, file, call, prog.Fset.Position(call.Pos()).Line); msg != "" {
					msg += "; package-level initializer in " + pkg.Rel + ", which runs before the determinism roots"
					prog.detraceRes[file] = append(prog.detraceRes[file], dtFinding{node: call, msg: msg})
				}
				return true
			})
		}
	}
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
	// Calls into the rand packages (functions, and methods on their
	// generators wherever those were built) and the time functions that
	// read the wall clock; time.Time methods such as After are pure.
	if fn, ok := pkg.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		method := fn.Type().(*types.Signature).Recv() != nil
		switch {
		case randPkgs[path] && method:
			return "randomness from a " + path + " generator (" + sel.Sel.Name + ") bypasses internal/rng"
		case randPkgs[path]:
			return "unseeded randomness from " + path + "." + sel.Sel.Name
		case path == "time" && !method && wallclockFuncs[sel.Sel.Name]:
			return "wall-clock dependence via time." + sel.Sel.Name
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
