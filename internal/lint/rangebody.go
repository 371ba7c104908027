package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file classifies the body of a `range` over a map: which of its
// effects are insensitive to iteration order (integer aggregation, set
// building, per-key writes) and which leak the map's random order into
// observable state (appends without a later sort, output writes, JSON
// emission, channel sends, last-write-wins assignments, floating-point
// accumulation). Both detrace (interprocedural taint) and maporder (local
// rule) consume the classification.

// rangeIssue is one order-dependent effect inside a map-range body.
type rangeIssue struct {
	// node locates the effect.
	node ast.Node
	// kind tags the effect: "append", "output", "json", "send", "assign",
	// "float-accum", "call", "return".
	kind string
	// msg explains it.
	msg string
}

// outputFuncs are the fmt/print family whose call inside a map range
// emits output in iteration order.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// jsonFuncs are the encoding/json entry points.
var jsonFuncs = map[string]bool{
	"Marshal": true, "MarshalIndent": true, "Encode": true,
}

// writerMethods are io-writer method names that emit output.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// benignBuiltins may be called inside a map-range body without leaking
// iteration order.
var benignBuiltins = map[string]bool{
	"append": true, "len": true, "cap": true, "delete": true,
	"min": true, "max": true, "abs": true, "copy": true, "clear": true,
	"make": true, "new": true, "panic": true, "print": false, "println": false,
}

// mapRangeIssues classifies the body of a range statement over a map.
// iterVars are the names bound by the range header (or a sync.Map Range
// callback's parameters). encl is the enclosing function body, searched
// for sort calls that discharge appends.
func mapRangeIssues(pkg *Package, body *ast.BlockStmt, iterVars map[string]bool, after token.Pos, encl *ast.BlockStmt) []rangeIssue {
	c := &rangeClassifier{
		pkg:      pkg,
		locals:   make(map[string]bool),
		iterVars: iterVars,
	}
	c.stmts(body.List)

	var issues []rangeIssue
	for _, a := range c.appendsOrder {
		if !sortedAfter(encl, after, a.target) {
			issues = append(issues, rangeIssue{
				node: a.node,
				kind: "append",
				msg:  "append to " + a.target + " inside a map range leaks iteration order; collect then sort " + a.target + " before use",
			})
		}
	}
	return append(issues, c.issues...)
}

// appendTarget is one `x = append(x, ...)` seen in the body.
type appendTarget struct {
	node   ast.Node
	target string
}

// rangeClassifier walks a map-range body accumulating issues.
type rangeClassifier struct {
	pkg      *Package
	locals   map[string]bool
	iterVars map[string]bool

	appendsOrder []appendTarget
	appendSeen   map[string]bool
	issues       []rangeIssue
}

func (c *rangeClassifier) addIssue(n ast.Node, kind, msg string) {
	c.issues = append(c.issues, rangeIssue{node: n, kind: kind, msg: msg})
}

func (c *rangeClassifier) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *rangeClassifier) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.IncDecStmt:
		// x++ / x-- add the same delta every iteration, so any order
		// produces the same sequence of operations.
		c.checkExprs(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						c.locals[name.Name] = true
					}
					for _, v := range vs.Values {
						c.checkExprs(v)
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.callEffect(st.X)
	case *ast.SendStmt:
		c.addIssue(st, "send", "send on a channel inside a map range publishes values in iteration order")
	case *ast.ReturnStmt:
		c.addIssue(st, "return", "return inside a map range picks an arbitrary entry; iterate a sorted copy instead")
	case *ast.BranchStmt:
		// break/continue/goto: control only.
	case *ast.IfStmt:
		c.checkExprs(st.Cond)
		c.stmts(st.Body.List)
		if st.Else != nil {
			c.stmt(st.Else)
		}
		if st.Init != nil {
			c.stmt(st.Init)
		}
	case *ast.BlockStmt:
		c.stmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		if st.Post != nil {
			c.stmt(st.Post)
		}
		c.checkExprs(st.Cond)
		c.stmts(st.Body.List)
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{st.Key, st.Value} {
			if id, ok := e.(*ast.Ident); ok && st.Tok == token.DEFINE {
				c.locals[id.Name] = true
			}
		}
		c.checkExprs(st.X)
		c.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.checkExprs(st.Tag)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.checkExprs(cc.List...)
				c.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.GoStmt, *ast.DeferStmt, *ast.LabeledStmt:
		// Rare inside map ranges; conservatively order-dependent.
		c.addIssue(s, "call", "statement inside a map range whose effects may depend on iteration order")
	case *ast.EmptyStmt:
	default:
		c.addIssue(s, "call", "statement inside a map range whose effects may depend on iteration order")
	}
}

// assign classifies one assignment inside the body.
func (c *rangeClassifier) assign(st *ast.AssignStmt) {
	// x := ... declares body-locals; the values still get checked.
	if st.Tok == token.DEFINE {
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				c.locals[id.Name] = true
			}
		}
		for _, rhs := range st.Rhs {
			c.checkExprs(rhs)
		}
		return
	}
	// x = append(x, ...): recorded for the sorted-later check.
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 && st.Tok == token.ASSIGN {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
				target := types.ExprString(st.Lhs[0])
				if types.ExprString(call.Args[0]) == target {
					if id, ok := st.Lhs[0].(*ast.Ident); ok && c.locals[id.Name] {
						// Appending to a slice created inside the body:
						// per-iteration scratch, discarded or attached
						// per key.
						for _, a := range call.Args[1:] {
							c.checkExprs(a)
						}
						return
					}
					c.appendsOrder = append(c.appendsOrder, appendTarget{node: st, target: target})
					for _, a := range call.Args[1:] {
						c.checkExprs(a)
					}
					return
				}
			}
		}
	}
	for i, lhs := range st.Lhs {
		c.assignTarget(st, lhs)
		if i < len(st.Rhs) {
			c.checkExprs(st.Rhs[i])
		}
	}
}

// assignTarget classifies one assignment destination.
func (c *rangeClassifier) assignTarget(st *ast.AssignStmt, lhs ast.Expr) {
	op := st.Tok
	switch t := lhs.(type) {
	case *ast.Ident:
		if t.Name == "_" || c.locals[t.Name] {
			return
		}
		c.scalarTarget(st, t, op)
	case *ast.IndexExpr:
		// Element writes keyed by the iteration variables touch each
		// entry once, so plain stores and integer accumulation are
		// order-insensitive. Indexes built from outer state (slot
		// counters) reintroduce ordering.
		if !c.indexFromIter(t) {
			c.addIssue(st, "assign", "element write "+types.ExprString(lhs)+" indexed by outer state inside a map range depends on iteration order")
			return
		}
		if op != token.ASSIGN {
			c.accumTarget(st, t, op)
		}
	case *ast.StarExpr, *ast.SelectorExpr:
		c.scalarTarget(st, lhs, op)
	default:
		c.addIssue(st, "assign", "assignment inside a map range whose target may depend on iteration order")
	}
}

// scalarTarget classifies a write to a single outer variable.
func (c *rangeClassifier) scalarTarget(st *ast.AssignStmt, lhs ast.Expr, op token.Token) {
	if op == token.ASSIGN {
		c.addIssue(st, "assign", "assignment to "+types.ExprString(lhs)+" inside a map range keeps the last-iterated entry; iteration order decides which")
		return
	}
	c.accumTarget(st, lhs, op)
}

// accumTarget classifies compound accumulation (+=, |=, …) by element type:
// exact for integers and booleans, order-sensitive for floats and strings.
func (c *rangeClassifier) accumTarget(st *ast.AssignStmt, lhs ast.Expr, op token.Token) {
	basic, ok := c.pkg.TypeOf(lhs).Underlying().(*types.Basic)
	if !ok {
		c.addIssue(st, "assign", "accumulation into "+types.ExprString(lhs)+" inside a map range may depend on iteration order")
		return
	}
	info := basic.Info()
	switch {
	case info&types.IsInteger != 0, info&types.IsBoolean != 0:
		// Exact and commutative.
	case info&types.IsFloat != 0, info&types.IsComplex != 0:
		c.addIssue(st, "float-accum", "floating-point accumulation into "+types.ExprString(lhs)+" inside a map range is not bit-reproducible; iterate sorted keys")
	case info&types.IsString != 0 && op == token.ADD_ASSIGN:
		c.addIssue(st, "assign", "string concatenation into "+types.ExprString(lhs)+" inside a map range concatenates in iteration order")
	default:
		c.addIssue(st, "assign", "accumulation into "+types.ExprString(lhs)+" inside a map range may depend on iteration order")
	}
}

// indexFromIter reports whether every identifier in the index chain of an
// element write (excluding the container itself) is an iteration variable,
// a body-local, or a constant.
func (c *rangeClassifier) indexFromIter(e *ast.IndexExpr) bool {
	ok := true
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		ix, isIx := x.(*ast.IndexExpr)
		if !isIx {
			return // reached the container
		}
		ast.Inspect(ix.Index, func(n ast.Node) bool {
			if id, isID := n.(*ast.Ident); isID {
				if !c.iterVars[id.Name] && !c.locals[id.Name] && !c.isConst(id) {
					ok = false
				}
			}
			return true
		})
		walk(ix.X)
	}
	walk(e)
	return ok
}

// isConst reports whether id denotes a constant.
func (c *rangeClassifier) isConst(id *ast.Ident) bool {
	obj := c.pkg.ObjectOf(id)
	_, isConst := obj.(*types.Const)
	return isConst
}

// checkExprs scans expressions for calls with order-dependent effects
// (anything but builtins, conversions, and calls whose results feed the
// surrounding order-insensitive write).
func (c *rangeClassifier) checkExprs(exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c.callEffect(call)
			return false // callEffect recurses into args itself
		})
	}
}

// callEffect classifies one call expression inside the body.
func (c *rangeClassifier) callEffect(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		c.checkExprs(e)
		return
	}
	for _, a := range call.Args {
		c.checkExprs(a)
	}
	switch fn := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		if benignBuiltins[fn.Name] && isBuiltin(c.pkg.ObjectOf(fn)) {
			return
		}
		if c.isConversion(call) {
			return
		}
		c.addIssue(call, "call", "call to "+fn.Name+" inside a map range runs in iteration order; hoist it or iterate sorted keys")
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		pkgPath := c.usePkgPath(fn)
		switch {
		case pkgPath == "fmt" && outputFuncs[name]:
			c.addIssue(call, "output", "fmt."+name+" inside a map range writes output in iteration order; iterate sorted keys")
		case pkgPath == "encoding/json" && jsonFuncs[name]:
			c.addIssue(call, "json", "json."+name+" inside a map range emits JSON in iteration order; iterate sorted keys")
		case name == "Encode" || (writerMethods[name] && pkgPath == ""):
			c.addIssue(call, "output", name+" inside a map range writes output in iteration order; iterate sorted keys")
		case pkgPath == "fmt":
			// Sprintf and friends are pure.
		default:
			if c.isConversion(call) {
				return
			}
			c.addIssue(call, "call", "call to "+types.ExprString(fn)+" inside a map range runs in iteration order; hoist it or iterate sorted keys")
		}
	default:
		if c.isConversion(call) {
			return
		}
		c.addIssue(call, "call", "indirect call inside a map range runs in iteration order")
	}
}

// usePkgPath returns the import path when sel is a qualified identifier
// (pkg.Name), else "".
func (c *rangeClassifier) usePkgPath(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := c.pkg.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isConversion reports whether call is a type conversion.
func (c *rangeClassifier) isConversion(call *ast.CallExpr) bool {
	return c.pkg.TypesInfo.Types[call.Fun].IsType()
}

// isBuiltin reports whether obj is a universe builtin.
func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

// sortFuncs recognized as deterministic sorts: sort.X / slices.X calls
// and .Sort methods.
func isSortCall(call *ast.CallExpr) bool {
	sel, ok := unwrapFun(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Sort", "Slice", "SliceStable",
			"Stable", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return sel.Sel.Name == "Sort"
}

// sortedAfter reports whether target (a rendered expression) appears in a
// recognized sort call positioned after pos inside body.
func sortedAfter(body *ast.BlockStmt, pos token.Pos, target string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !isSortCall(call) {
			return true
		}
		scan := func(e ast.Expr) {
			ast.Inspect(e, func(m ast.Node) bool {
				if x, ok := m.(ast.Expr); ok && types.ExprString(x) == target {
					found = true
				}
				return true
			})
		}
		for _, a := range call.Args {
			scan(a)
		}
		if sel, ok := unwrapFun(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sort" {
			scan(sel.X)
		}
		return true
	})
	return found
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(pkg *Package, rs *ast.RangeStmt) bool {
	_, ok := pkg.TypeOf(rs.X).Underlying().(*types.Map)
	return ok
}

// rangeIterVars returns the names bound by a range statement header.
func rangeIterVars(rs *ast.RangeStmt) map[string]bool {
	vars := make(map[string]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			vars[id.Name] = true
		}
	}
	return vars
}
