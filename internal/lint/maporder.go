package lint

import (
	"go/ast"
)

// MapOrder is the local (intraprocedural) map-iteration-order rule: a
// `range` over a map — or a sync.Map Range callback — whose body appends
// to a slice, writes output, emits JSON, or sends on a channel leaks the
// map's randomized iteration order into observable state unless the
// collected entries are deterministically sorted afterwards.
//
// Unlike detrace this rule fires everywhere, not just under the
// determinism roots: ad-hoc diagnostics and CLI output drift across runs
// too, and the byte-identical-output contract covers the whole repo.
// Order-insensitive bodies (integer/boolean aggregation, per-key element
// writes, set building) pass; `//lint:deterministic <why>` on the range
// statement discharges the rest.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration whose order leaks into appends, output, JSON, or channel sends without a deterministic sort",
	Run:  runMapOrder,
}

// mapOrderKinds are the effect kinds this local rule reports. Float
// accumulation is included: FP addition is not associative, so summing in
// map order drifts in the low bits across runs — the exact failure mode
// the byte-identity contract exists to catch. The remaining kinds (calls
// with unknown effects, last-wins assignment) carry too little local
// evidence and are left to detrace, which only fires when a determinism
// root is actually reachable.
var mapOrderKinds = map[string]bool{
	"append": true, "output": true, "json": true, "send": true,
	"float-accum": true,
}

func runMapOrder(pass *Pass) {
	for _, decl := range pass.File.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.RangeStmt:
				if !isMapRange(pass.Package, s) {
					return true
				}
				line := pass.Program.Fset.Position(s.Pos()).Line
				if pass.File.Deterministic(line) {
					return true
				}
				reportOrderIssues(pass, s, s.Body, rangeIterVars(s), fd.Body)
			case *ast.CallExpr:
				// sync.Map iteration: m.Range(func(k, v any) bool { ... }).
				sel, ok := unwrapFun(s.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Range" || len(s.Args) != 1 {
					return true
				}
				if !isSyncType(pass.Package.TypeOf(sel.X), "Map") {
					return true
				}
				line := pass.Program.Fset.Position(s.Pos()).Line
				if pass.File.Deterministic(line) {
					return true
				}
				if lit, ok := s.Args[0].(*ast.FuncLit); ok {
					iterVars := make(map[string]bool)
					for _, f := range lit.Type.Params.List {
						for _, name := range f.Names {
							if name.Name != "_" {
								iterVars[name.Name] = true
							}
						}
					}
					reportOrderIssues(pass, s, lit.Body, iterVars, fd.Body)
				}
			}
			return true
		})
	}
}

// reportOrderIssues classifies one iteration body and reports the
// order-dependent effects this rule owns.
func reportOrderIssues(pass *Pass, at ast.Node, body *ast.BlockStmt, iterVars map[string]bool, encl *ast.BlockStmt) {
	for _, issue := range mapRangeIssues(pass.Package, body, iterVars, at.End(), encl) {
		if !mapOrderKinds[issue.kind] {
			continue
		}
		pass.Report(issue.node, "map iteration order leaks: %s (sort the keys first, or annotate //lint:deterministic <why>)", issue.msg)
	}
}
