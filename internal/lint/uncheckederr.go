package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedError flags statement-position calls that drop an error
// returned by a function or method declared in the loaded module: the
// callee is resolved through the type checker, so a method is judged by
// its own signature, not by others that share its name. Stdlib calls are
// never flagged, including those named like a repo method, which a
// name-based rule would flag falsely. Deferred calls are deliberately
// exempt: `defer f.Close()` on a read path is idiomatic.
var UncheckedError = &Analyzer{
	Name: "unchecked-error",
	Doc:  "dropped error results from repo functions; handle the error or assign it to _",
	Run:  runUncheckedError,
}

func runUncheckedError(pass *Pass) {
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		// callee renders the three message shapes: "f", "pkg.F" and
		// "method M".
		var name *ast.Ident
		var callee string
		switch fn := unwrapFun(call.Fun).(type) {
		case *ast.Ident:
			name, callee = fn, fn.Name
		case *ast.SelectorExpr:
			name, callee = fn.Sel, "method "+fn.Sel.Name
			if id, ok := fn.X.(*ast.Ident); ok {
				if _, ok := pass.Package.ObjectOf(id).(*types.PkgName); ok {
					callee = id.Name + "." + fn.Sel.Name
				}
			}
		default:
			return true
		}
		if obj, ok := pass.Package.ObjectOf(name).(*types.Func); ok && pass.Program.inModule(obj) && lastIsError(obj) {
			pass.Report(call, "call to %s drops its error result; handle it or assign to _ explicitly", callee)
		}
		return true
	})
}

// lastIsError reports whether fn's last result has type error.
func lastIsError(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	return res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}
