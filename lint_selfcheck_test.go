package hotspots_test

// This test makes the determinism invariants self-enforcing: the full
// internal/lint suite runs over the repository's non-test files on every
// `go test ./...`, so a regression in any of its five rules — a
// nondeterminism source such as math/rand, the wall clock or map order
// reaching a determinism root (detrace), a map iteration leaking its
// order anywhere (maporder), an unsynchronized lazy init on a shared type
// (lazyinit), a float == (float-eq), or a dropped error (unchecked-error)
// — fails the build. Suppressions require a written justification
// (//lint:ignore <rule> <reason> or //lint:deterministic <why>);
// reasonless directives are themselves findings.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// repoProgram loads the repository once per test binary; both tests below
// read the same Program, so `go test .` parses and type-checks the tree
// once.
var repoProgram = sync.OnceValues(func() (*lint.Program, error) {
	return lint.Load(".")
})

func loadRepo(t *testing.T) *lint.Program {
	t.Helper()
	prog, err := repoProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 20 {
		// Guard against silently linting an empty or truncated tree.
		t.Fatalf("loaded only %d packages; the loader is missing the repo", len(prog.Packages))
	}
	return prog
}

func TestRepositoryPassesLintSuite(t *testing.T) {
	prog := loadRepo(t)
	findings := lint.Run(prog, lint.Analyzers())
	baseline, err := lint.LoadBaseline("lint.baseline")
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := lint.FilterBaseline(findings, baseline)
	for _, f := range fresh {
		t.Errorf("%s", f)
	}
	for _, key := range stale {
		t.Errorf("stale baseline entry (the finding no longer fires — delete the line): %s", key)
	}
	if len(fresh) > 0 {
		t.Log("fix the findings or add //lint:ignore <rule> <reason> (or //lint:deterministic <why> for detrace) where the rule is wrong; see DESIGN.md §11")
	}
}

// TestTypedLayerCoversRepository pins the call graph to the real tree: it
// must see every determinism root detrace starts from, so a renamed or
// moved entry point cannot silently drop its call tree out of the check.
// That every package type-checks is pinned by the suite above, which
// reports each type error as a "typecheck" finding.
func TestTypedLayerCoversRepository(t *testing.T) {
	g := loadRepo(t).CallGraph()
	for _, root := range lint.DeTraceRoots {
		if len(g.Lookup(root.Rel, root.Name)) == 0 {
			t.Errorf("call graph lost determinism root %s.%s", root.Rel, root.Name)
		}
	}
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, errors.Unwrap, types.Importer),
// which the call graph cannot see.
var stdlibMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Import": true}

// testInputs are non-test functions that no entry point calls but a test
// of other code uses as an oracle or as input; each names that test (or
// the _perfbench file that calls it). They count as roots.
var testInputs = map[string]string{
	"internal/detect.(ThresholdFleet).TouchedFraction": "internal/sim TestExactSensorsSeeProbes",
	"internal/detect.MustNewThresholdFleet":            "internal/sim TestRunFastWorkersByteIdentical",
	"internal/epidemic.(SI).Infected":                  "internal/epidemic TestSimulationMatchesLogistic",
	"internal/experiments.Fig1SpikeRatio":              "internal/experiments TestFig1ShapeTickSeedingCreatesHotspots",
	"internal/payload.BenignPayload":                   "internal/payload TestEarlybirdIgnoresBenignAndLowDispersion",
	"internal/population.InternetScale":                "_perfbench/fast.go",
	"internal/sensor.(Fleet).Trace":                    "internal/sim TestTraceWorkerInvariance",
	"internal/sweep.(Checkpoint).Len":                  "internal/sweep TestResumedSweepIsByteIdenticalAndSkipsCachedTasks",
	"internal/sim.NewLocalPrefModel":                   "internal/sim TestFastGroupRunsGoldenByteIdentity (localpref-nat)",
	"internal/trace.MarshalEvents":                     "internal/trace FuzzTraceNDJSON",
	"internal/worm.CodeRedIIPreference":                "internal/sim TestNewLocalPrefModelValidates",
	"internal/worm.NimdaPreference":                    "internal/sim TestLocalPrefModelMatchesExactDriver",
}

// TestEveryFunctionHasARoot fails on any non-test function that no entry
// point reaches, so code a refactor orphans is deleted with it instead of
// lingering as a representation nothing runs. The roots are every main
// and init, every function a package-level var initializer names, every
// exported function of the root package (the library facade), methods
// the standard library calls by name, and testInputs.
func TestEveryFunctionHasARoot(t *testing.T) {
	prog := loadRepo(t)
	g := prog.CallGraph()
	var roots []*lint.FuncNode
	byName := make(map[string]*lint.FuncNode, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name()] = n
		name, method := n.Obj.Name(), n.Decl.Recv != nil
		switch {
		case method && stdlibMethods[name],
			!method && (name == "init" || name == "main" && n.Pkg.Name == "main"),
			!method && n.Pkg.Rel == "." && token.IsExported(name):
			roots = append(roots, n)
		}
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, funcsNamedIn(g, pkg, gd)...)
				}
			}
		}
	}
	reached := g.ReachableFrom(roots)
	for name, user := range testInputs {
		n := byName[name]
		switch _, ok := reached[n]; {
		case n == nil:
			t.Errorf("testInputs names %s (for %s), which does not exist", name, user)
		case ok:
			t.Errorf("testInputs names %s (for %s), which an entry point reaches: delete the entry", name, user)
		default:
			roots = append(roots, n)
		}
	}
	reached = g.ReachableFrom(roots)
	var orphans []string
	for _, n := range g.Nodes {
		if _, ok := reached[n]; !ok {
			orphans = append(orphans, prog.Fset.Position(n.Decl.Pos()).String()+": "+n.Name())
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d functions no entry point reaches; delete them (with the tests that test only them), "+
			"or name the test of other code that uses one in testInputs:\n%s", len(orphans), strings.Join(orphans, "\n"))
	}
}

// funcsNamedIn returns the functions and methods a package-level var
// declaration names, called or not.
func funcsNamedIn(g *lint.CallGraph, pkg *lint.Package, decl *ast.GenDecl) []*lint.FuncNode {
	var out []*lint.FuncNode
	ast.Inspect(decl, func(nd ast.Node) bool {
		var obj types.Object
		switch e := nd.(type) {
		case *ast.Ident:
			obj = pkg.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			if sel, ok := pkg.TypesInfo.Selections[e]; ok {
				obj = sel.Obj()
			}
		}
		if fn, ok := obj.(*types.Func); ok {
			if n := g.Nodes[fn.Origin()]; n != nil {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}
