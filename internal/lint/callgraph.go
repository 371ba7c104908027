package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds an AST-level call graph over the whole loaded module,
// using the typed layer for resolution. The graph is deliberately
// conservative (sound-ish, not precise): calls it cannot resolve
// statically fall back to every plausible target, so taint never escapes
// through an indirect call.
//
// Resolution tiers:
//
//  1. static   — plain function calls and concrete method calls resolve
//                to their declaration.
//  2. interface— a call through an interface method adds an edge to every
//                module method with the same name and arity.
//  3. dynamic  — a call through a function value (variable, struct field,
//                method value, call result) adds an edge to every module
//                function whose address is taken somewhere and whose
//                arity matches.
//
// Function literals are inlined into their enclosing declaration: sources
// inside `go func(){...}` bodies belong to the function that spawned them.

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	// Obj is the type-checker object for the declaration.
	Obj *types.Func
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Pkg and File locate the declaration.
	Pkg  *Package
	File *File
	// Callees are the outgoing edges, in source order.
	Callees []Edge
	// GoEntry reports that some call site reaches this function from
	// inside a go statement, so its body runs on a worker goroutine.
	GoEntry bool
}

// Edge is one call site.
type Edge struct {
	// Callee is the target.
	Callee *FuncNode
	// Site is the call expression (or value reference) creating the edge.
	Site ast.Node
}

// Name renders the node as "pkgRel.Func" or "pkgRel.(Type).Method".
func (n *FuncNode) Name() string {
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return n.Pkg.Rel + ".(" + named.Obj().Name() + ")." + n.Obj.Name()
		}
	}
	return n.Pkg.Rel + "." + n.Obj.Name()
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	// Nodes maps declaration objects to their nodes.
	Nodes map[*types.Func]*FuncNode

	byName       map[string][]*FuncNode // bare name -> nodes (interface fallback)
	addressTaken []*FuncNode            // functions referenced as values (dynamic fallback)
}

// CallGraph builds (once) and returns the module call graph. It triggers
// Check() as needed.
func (prog *Program) CallGraph() *CallGraph {
	if prog.callgraph != nil {
		return prog.callgraph
	}
	prog.Check()
	g := &CallGraph{
		Nodes:  make(map[*types.Func]*FuncNode),
		byName: make(map[string][]*FuncNode),
	}

	// Pass 1: nodes for every declared function with a body.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, File: file}
				g.Nodes[obj] = n
				g.byName[fd.Name.Name] = append(g.byName[fd.Name.Name], n)
			}
		}
	}

	// Pass 2: address-taken functions — any use of a function object
	// outside call position (method values, handlers stored in fields,
	// funcs passed as arguments).
	taken := make(map[*FuncNode]bool)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			callFuns := make(map[ast.Node]bool)
			ast.Inspect(file.AST, func(nd ast.Node) bool {
				if call, ok := nd.(*ast.CallExpr); ok {
					fun := unwrapFun(call.Fun)
					callFuns[fun] = true
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						callFuns[sel.Sel] = true
					}
				}
				return true
			})
			record := func(obj types.Object) {
				if fn, ok := obj.(*types.Func); ok {
					if node := g.lookupObj(fn); node != nil {
						taken[node] = true
					}
				}
			}
			ast.Inspect(file.AST, func(nd ast.Node) bool {
				if callFuns[nd] {
					return true
				}
				switch e := nd.(type) {
				case *ast.Ident:
					record(pkg.TypesInfo.Uses[e])
				case *ast.SelectorExpr:
					if sel, ok := pkg.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
						record(sel.Obj())
					}
				}
				return true
			})
		}
	}
	g.addressTaken = make([]*FuncNode, 0, len(taken))
	for n := range taken {
		g.addressTaken = append(g.addressTaken, n)
	}
	sort.Slice(g.addressTaken, func(i, j int) bool {
		return g.addressTaken[i].Name() < g.addressTaken[j].Name()
	})

	// Pass 3: edges, in deterministic node order so every downstream
	// traversal (BFS parents, reported paths) is reproducible.
	for _, n := range g.sortedNodes() {
		g.addEdges(n)
	}
	prog.callgraph = g
	return g
}

// lookupObj finds the node for a function object, mapping generic
// instantiations back to their declaration.
func (g *CallGraph) lookupObj(fn *types.Func) *FuncNode {
	if n := g.Nodes[fn]; n != nil {
		return n
	}
	if orig := fn.Origin(); orig != nil {
		return g.Nodes[orig]
	}
	return nil
}

// addEdges walks one declaration's body and records its call edges,
// tracking whether each site sits inside a go statement.
func (g *CallGraph) addEdges(n *FuncNode) {
	info := n.Pkg.TypesInfo
	var walk func(nd ast.Node, inGo bool)
	walk = func(nd ast.Node, inGo bool) {
		ast.Inspect(nd, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.GoStmt:
				walk(s.Call, true)
				return false
			case *ast.CallExpr:
				for _, target := range g.resolve(info, s) {
					n.Callees = append(n.Callees, Edge{Callee: target, Site: s})
					if inGo {
						target.GoEntry = true
					}
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, false)
}

// resolve returns the possible module-internal targets of one call.
func (g *CallGraph) resolve(info *types.Info, call *ast.CallExpr) []*FuncNode {
	fun := unwrapFun(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			if n := g.lookupObj(obj); n != nil {
				return []*FuncNode{n}
			}
			return nil // external function
		case *types.Builtin, *types.TypeName, nil:
			return nil // builtin, conversion, or unresolved
		default:
			return g.dynamicTargets(info, call) // func-typed variable
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					return g.interfaceTargets(f.Sel.Name, call)
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					if n := g.lookupObj(fn); n != nil {
						return []*FuncNode{n}
					}
				}
				return nil
			case types.FieldVal:
				return g.dynamicTargets(info, call) // func-typed field
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			if n := g.lookupObj(fn); n != nil {
				return []*FuncNode{n}
			}
		}
		return nil
	case *ast.FuncLit:
		return nil // inlined: the literal's body is walked by the caller
	default:
		if fun == nil {
			return nil
		}
		return g.dynamicTargets(info, call)
	}
}

// interfaceTargets is the interface-dispatch fallback: every module method
// with the same name and parameter count.
func (g *CallGraph) interfaceTargets(name string, call *ast.CallExpr) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.byName[name] {
		if n.Decl.Recv != nil && arity(n.Decl) == len(call.Args) {
			out = append(out, n)
		}
	}
	return out
}

// dynamicTargets is the function-value fallback: every address-taken
// module function whose parameter count matches the call.
func (g *CallGraph) dynamicTargets(info *types.Info, call *ast.CallExpr) []*FuncNode {
	want := len(call.Args)
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			want = sig.Params().Len()
		}
	}
	var out []*FuncNode
	for _, n := range g.addressTaken {
		if arity(n.Decl) == want {
			out = append(out, n)
		}
	}
	return out
}

// arity counts a declaration's parameters (fields with multiple names
// count each name).
func arity(fd *ast.FuncDecl) int {
	total := 0
	for _, f := range fd.Type.Params.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		total += n
	}
	return total
}

// unwrapFun strips parentheses and generic instantiation indexes off a
// call's function expression.
func unwrapFun(e ast.Expr) ast.Expr {
	for {
		switch f := e.(type) {
		case *ast.ParenExpr:
			e = f.X
		case *ast.IndexExpr:
			e = f.X
		case *ast.IndexListExpr:
			e = f.X
		default:
			return e
		}
	}
}

// Lookup returns the nodes in the package with the given Rel whose name
// matches: "RunExact" for functions, "Type.Method" or just "Method" for
// methods.
func (g *CallGraph) Lookup(rel, name string) []*FuncNode {
	typeName, bare, isMethod := strings.Cut(name, ".")
	if !isMethod {
		bare = name
	}
	var out []*FuncNode
	for _, n := range g.byName[bare] {
		if n.Pkg.Rel != rel {
			continue
		}
		if isMethod {
			if n.Decl.Recv == nil || !strings.Contains(n.Name(), "("+typeName+")") {
				continue
			}
		}
		out = append(out, n)
	}
	return out
}

// ReachableFrom walks the graph forward from roots and returns, for every
// reachable node, the edge-parent it was discovered through (roots map to
// a nil parent).
func (g *CallGraph) ReachableFrom(roots []*FuncNode) map[*FuncNode]*FuncNode {
	parent := make(map[*FuncNode]*FuncNode)
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; ok {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Callees {
			if _, ok := parent[e.Callee]; ok {
				continue
			}
			parent[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return parent
}

// sortedNodes returns the graph's nodes ordered by Name.
func (g *CallGraph) sortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name() < nodes[j].Name() })
	return nodes
}

// GoReachable returns every node whose body may execute on a spawned
// goroutine: the go-statement entry points plus everything they call.
func (g *CallGraph) GoReachable() map[*FuncNode]bool {
	var entries []*FuncNode
	for _, n := range g.sortedNodes() {
		if n.GoEntry {
			entries = append(entries, n)
		}
	}
	parent := g.ReachableFrom(entries)
	out := make(map[*FuncNode]bool, len(parent))
	for n := range parent {
		out[n] = true
	}
	return out
}
