package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// LazyInit flags unsynchronized lazy-initialization (memoization) on
// types that are shared across goroutines: a pointer-receiver method that
// guards work behind a nil check (`if x.f == nil { x.f = ... }`) or a
// boolean flag (`if x.done { return }` … `x.done = true`, or
// `if x.dirty { x.merge() }` with the write in the called slow path)
// without a mutex or sync.Once, on a type that either carries a
// Freeze/share contract (it declares a Freeze method) or whose method is
// reachable from spawned goroutines.
//
// Two concurrent first calls both see the unset guard and both write —
// at best duplicated work, at worst a torn structure read mid-build.
// This is exactly the (*ipv4.Set).Select rank-index race: Select lazily
// built the rank table on first use, workers shared the set, and the
// race detector caught two builders interleaving. Initialize eagerly
// before sharing (Freeze), guard with sync.Once, or justify with
// `//lint:ignore lazyinit <reason>` citing the invariant that serializes
// the first call.
var LazyInit = &Analyzer{
	Name: "lazyinit",
	Doc:  "unsynchronized lazy initialization on types shared across goroutines (nil-guarded or memo-flag-guarded writes without mutex/Once)",
	Run:  runLazyInit,
}

func runLazyInit(pass *Pass) {
	for _, f := range pass.Program.lazyFindings()[pass.File] {
		pass.Report(f.node, "%s", f.msg)
	}
}

// lazyFindings computes (once) the whole-module lazy-init result.
func (prog *Program) lazyFindings() map[*File][]dtFinding {
	//lint:ignore lazyinit a Program is analyzed on a single goroutine; reprolint never shares one across workers
	if prog.lazyOnce {
		return prog.lazyRes
	}
	prog.lazyOnce = true
	prog.lazyRes = make(map[*File][]dtFinding)

	g := prog.CallGraph()
	goReach := g.GoReachable()

	// Types carrying a Freeze method: their instances are built, frozen,
	// then shared — so every lazy write on them is a latent race.
	frozen := make(map[*Package]map[string]bool)
	for _, n := range g.byName["Freeze"] {
		if tn := recvTypeName(n.Decl); tn != "" {
			if frozen[n.Pkg] == nil {
				frozen[n.Pkg] = make(map[string]bool)
			}
			frozen[n.Pkg][tn] = true
		}
	}

	for _, n := range g.sortedNodes() {
		tn := recvTypeName(n.Decl)
		if tn == "" {
			continue
		}
		var reason string
		switch {
		case frozen[n.Pkg][tn]:
			reason = tn + " declares Freeze, so instances are shared after construction"
		case goReach[n]:
			reason = "this method is reachable from spawned goroutines"
		default:
			continue
		}
		if synchronized(n.Decl.Body, n.Pkg) {
			continue
		}
		recv := recvName(n.Decl)
		if recv == "" {
			continue
		}
		for _, lz := range lazyGuards(n, recv) {
			msg := fmt.Sprintf(
				"unsynchronized lazy initialization of %s.%s (%s); %s — two concurrent first calls race on the write: initialize eagerly before sharing or guard with sync.Once",
				tn, lz.field, lz.shape, reason)
			prog.lazyRes[n.File] = append(prog.lazyRes[n.File], dtFinding{node: lz.guard, msg: msg})
		}
	}
	return prog.lazyRes
}

// recvTypeName returns the bare receiver type name of a method
// declaration, or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// recvName returns the receiver variable name, or "" when anonymous.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fd.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// synchronized reports whether body takes a lock or defers to a
// sync.Once before doing its work. Any .Lock/.RLock call counts; .Do
// counts when the callee is (or plausibly is) a sync.Once.
func synchronized(body *ast.BlockStmt, pkg *Package) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unwrapFun(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			found = true
		case "Do":
			found = found || isSyncType(pkg.TypeOf(sel.X), "Once")
		}
		return !found
	})
	return found
}

// lazyGuard is one detected lazy-init pattern.
type lazyGuard struct {
	// guard is the if statement implementing the check.
	guard *ast.IfStmt
	// field is the receiver field being lazily initialized.
	field string
	// shape describes the pattern for the message.
	shape string
}

// lazyGuards finds the three memoization shapes on receiver fields:
//
//  1. nil guard:  if r.f == nil { r.f = ... }
//  2. memo flag:  if r.done { return }  …  r.done = true
//     (or the inverted  if !r.dirty { return }  …  r.dirty = false)
//  3. flag guard: if r.dirty { r.merge() } where merge clears r.dirty
//     (or the inverted  if !r.ranked { … r.ranked = true })
//
// A write counts when it is in n itself or in a method n calls on its
// receiver, so splitting a guard from its out-of-line slow path does not
// hide it. Shape 2 only counts when the function also writes the flag —
// otherwise it is an ordinary state check, not memoization.
func lazyGuards(n *FuncNode, recv string) []lazyGuard {
	body := n.Decl.Body
	writes := func(root ast.Node, field string) bool {
		if writesField(root, recv, field) {
			return true
		}
		for _, e := range n.Callees {
			call, ok := e.Site.(*ast.CallExpr)
			if !ok || call.Pos() < root.Pos() || call.End() > root.End() || recvField(unwrapFun(call.Fun), recv) == "" {
				continue
			}
			if r := recvName(e.Callee.Decl); r != "" && writesField(e.Callee.Decl.Body, r, field) {
				return true
			}
		}
		return false
	}
	var out []lazyGuard
	ast.Inspect(body, func(nd ast.Node) bool {
		ifs, ok := nd.(*ast.IfStmt)
		if !ok || ifs.Init != nil {
			return true
		}
		// Shape 1: if r.f == nil { … r.f = … }.
		if bin, ok := ifs.Cond.(*ast.BinaryExpr); ok && bin.Op == token.EQL {
			if field := recvField(bin.X, recv); field != "" && isNilIdent(bin.Y) {
				if writes(ifs.Body, field) {
					out = append(out, lazyGuard{guard: ifs, field: field, shape: "nil-guarded write"})
					return true
				}
			}
		}
		// Shape 2: if r.done { return } (possibly negated) with the flag
		// written elsewhere in the function; shape 3: the guarded block
		// writes the flag itself.
		cond := ifs.Cond
		if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
			cond = un.X
		}
		field := recvField(cond, recv)
		switch {
		case field == "":
		case isEarlyReturn(ifs.Body):
			if writes(body, field) {
				out = append(out, lazyGuard{guard: ifs, field: field, shape: "memo-flag early return"})
			}
		case writes(ifs.Body, field):
			out = append(out, lazyGuard{guard: ifs, field: field, shape: "flag-guarded rebuild"})
		}
		return true
	})
	return out
}

// recvField returns the field name when e is recv.<field>, else "".
func recvField(e ast.Expr, recv string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
		return sel.Sel.Name
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isEarlyReturn reports whether a guard body just bails out.
func isEarlyReturn(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		switch st.(type) {
		case *ast.ReturnStmt, *ast.ExprStmt:
		default:
			return false
		}
	}
	_, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	return ok
}

// writesField reports whether any statement under root assigns to
// recv.<field> (plain or compound assignment).
func writesField(root ast.Node, recv, field string) bool {
	found := false
	ast.Inspect(root, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for _, lhs := range as.Lhs {
			if recvField(lhs, recv) == field {
				found = true
			}
		}
		return !found
	})
	return found
}
