package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != where either operand's type has a
// floating-point underlying type. Exact float comparison is almost always
// a latent bug in the statistics pipeline; the rare legitimate exact
// checks (a zero that means "unset", a sort tie-break, bit-exact oracle
// identity) take a //lint:ignore with the justification spelled out.
var FloatEq = &Analyzer{
	Name: "float-eq",
	Doc:  "== / != between floating-point expressions; compare with a tolerance",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isFloat(pass.Package.TypeOf(be.X)) || isFloat(pass.Package.TypeOf(be.Y)) {
			pass.Report(be, "floating-point %s comparison; use a tolerance (e.g. math.Abs(a-b) <= eps) or justify with //lint:ignore", be.Op)
		}
		return true
	})
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (typed or untyped).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
