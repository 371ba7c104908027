package lint

import (
	"go/ast"
	"go/token"
)

// GoroutineCapture flags writes inside a `go func` literal to a map
// declared outside it — a local of the enclosing function or one of its
// map-typed parameters — with no Lock call anywhere in the body to suggest
// synchronization: a race that -race only catches when the schedule
// cooperates. The rule is syntactic because it also lints _test.go files,
// which the typed layer does not check, so maps reached through struct
// fields are out of its reach. (Loop-variable capture needs no rule: since
// Go 1.22, which go.mod requires, every loop iteration declares fresh
// variables.)
var GoroutineCapture = &Analyzer{
	Name: "goroutine-capture",
	Doc:  "unsynchronized shared-map writes in go func literals",
	Run:  runGoroutineCapture,
}

func runGoroutineCapture(pass *Pass) {
	for _, decl := range pass.File.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		mapVars := collectMapVars(fd.Body)
		for _, field := range fd.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, name := range field.Names {
					mapVars[name.Name] = true
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkSharedMapWrites(pass, lit, mapVars)
			}
			return true
		})
	}
}

// checkSharedMapWrites reports writes (index assignment or delete) to maps
// declared outside the literal when nothing in the body takes a lock.
func checkSharedMapWrites(pass *Pass, lit *ast.FuncLit, mapVars map[string]bool) {
	if len(mapVars) == 0 {
		return
	}
	local := declaredIn(lit)
	locked := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			locked = true
		}
		return true
	})
	if locked {
		return
	}
	reportWrite := func(lhs ast.Expr) {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			return
		}
		if id, ok := ix.X.(*ast.Ident); ok && mapVars[id.Name] && !local[id.Name] {
			pass.Report(ix, "write to shared map %q inside go func literal without synchronization; guard it with a mutex or use per-goroutine maps merged after Wait", id.Name)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				reportWrite(lhs)
			}
		case *ast.IncDecStmt:
			reportWrite(s.X)
		case *ast.CallExpr:
			if fn, ok := s.Fun.(*ast.Ident); ok && fn.Name == "delete" && len(s.Args) > 0 {
				if id, ok := s.Args[0].(*ast.Ident); ok && mapVars[id.Name] && !local[id.Name] {
					pass.Report(s, "delete from shared map %q inside go func literal without synchronization", id.Name)
				}
			}
		}
		return true
	})
}

// collectMapVars finds names bound to syntactically map-typed values in
// body: explicit map var declarations, make(map[...]...), and map
// composite literals.
func collectMapVars(body *ast.BlockStmt) map[string]bool {
	vars := make(map[string]bool)
	isMapExpr := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			if fn, ok := x.Fun.(*ast.Ident); ok && fn.Name == "make" && len(x.Args) > 0 {
				_, isMap := x.Args[0].(*ast.MapType)
				return isMap
			}
		case *ast.CompositeLit:
			_, isMap := x.Type.(*ast.MapType)
			return isMap
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ValueSpec:
			if _, ok := s.Type.(*ast.MapType); ok {
				for _, name := range s.Names {
					vars[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isMapExpr(s.Rhs[i]) {
					vars[id.Name] = true
				}
			}
		}
		return true
	})
	return vars
}

// declaredIn returns every name the literal declares itself: parameters
// and any := / var declarations in its body.
func declaredIn(lit *ast.FuncLit) map[string]bool {
	names := make(map[string]bool)
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				names[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				names[name.Name] = true
			}
		}
		return true
	})
	return names
}
