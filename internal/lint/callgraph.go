package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural
// analyzers (hotalloc, detflow) walk. The graph is a conservative
// over-approximation: every call that *could* happen at runtime has an
// edge, at the cost of some edges that never will. Concretely:
//
//   - Static calls — a direct call to a package function or to a method
//     whose receiver's concrete type is known — edge to exactly that
//     function.
//   - Interface method calls edge to every method of every named type
//     declared in the module that implements the interface (by value or
//     pointer receiver). The callee set is closed over the module, not
//     the program: implementations living outside the module are
//     invisible, which is the standard whole-module assumption.
//   - Function literals are their own nodes (named "parent$n"). Creating
//     a closure adds an edge from the creating function to the literal:
//     a closure that is never invoked is over-approximated as invoked,
//     which keeps literals registered as callbacks (sim.Register) or
//     handed to stdlib drivers (sort.Slice) inside the closure of
//     whoever built them.
//   - Referencing a function or method as a *value* (stored, passed,
//     returned) likewise adds an edge from the referencing function:
//     once a function value escapes into a variable the analysis no
//     longer tracks which call site fires it, so the reference site is
//     charged with the call.
//   - Calls through function-typed values (x.cbs[i](arg), f()) edge to
//     every node whose value was taken somewhere in the module and whose
//     signature is identical to the call's.
//
// Edges carry the call site position and a kind so diagnostics can
// render honest chains ("via interface obs.QueryTracer.Event").

// EdgeKind classifies how a call-graph edge was derived.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call with a statically known callee.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved to
	// one conservative implementation.
	EdgeInterface
	// EdgeClosure is the creation of a function literal (the literal may
	// run whenever its creator does, or later).
	EdgeClosure
	// EdgeFuncValue is a reference to a function or method as a value
	// (the referenced function may be called wherever the value flows).
	EdgeFuncValue
	// EdgeDynamic is a call through a function-typed value, resolved to
	// one signature-compatible value-referenced function.
	EdgeDynamic
)

// String renders the kind for chain diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "call"
	case EdgeInterface:
		return "interface dispatch"
	case EdgeClosure:
		return "closure"
	case EdgeFuncValue:
		return "function value"
	case EdgeDynamic:
		return "dynamic call"
	}
	return "edge"
}

// Edge is one may-call relation.
type Edge struct {
	Callee *Node
	Kind   EdgeKind
	// Pos is the call or reference site inside the caller.
	Pos token.Pos
	// Via names the interface method for EdgeInterface edges
	// ("obs.QueryTracer.Event"), empty otherwise.
	Via string
}

// Node is one function in the call graph: a declared function or method
// (Fn non-nil) or a function literal (Lit non-nil).
type Node struct {
	// Name is the stable module-relative display name, e.g.
	// "internal/queuesim.(*Runner).RunInto" or "internal/sim.reset$1".
	Name string
	Pkg  *Package
	Fn   *types.Func   // nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Sig  *types.Signature

	// Out edges, sorted by (callee name, position) for deterministic
	// traversal.
	Out []Edge

	// HotPath and HotPathReason record a //sprint:hotpath annotation on
	// the declaration (see hotpath.go).
	HotPath       bool
	HotPathReason string
}

// Body returns the node's function body (nil for bodiless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// CallGraph is the module-wide may-call graph.
type CallGraph struct {
	// Nodes in deterministic order (package, then position).
	Nodes []*Node
	// byFn resolves declared functions; literals are only reachable
	// through edges.
	byFn map[*types.Func]*Node
}

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{
		g:          &CallGraph{byFn: map[*types.Func]*Node{}},
		valueRefed: map[*Node]bool{},
	}
	if len(pkgs) > 0 {
		b.modPath = pkgs[0].Path
		if pkgs[0].Rel != "." {
			b.modPath = strings.TrimSuffix(pkgs[0].Path, "/"+pkgs[0].Rel)
		}
	}
	// Pass 1: declare nodes for every function, method and literal, and
	// collect the module's named types for interface resolution.
	for _, pkg := range pkgs {
		b.declarePackage(pkg)
	}
	// Pass 2: add edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b.addEdges(pkg, b.g.byFn[obj], fd.Body)
			}
		}
	}
	// Pass 3: resolve dynamic calls against the value-referenced set,
	// then sort adjacency lists.
	b.resolveDynamic()
	for _, n := range b.g.Nodes {
		sortEdges(n.Out)
	}
	return b.g
}

type dynCall struct {
	caller *Node
	sig    *types.Signature
	pos    token.Pos
}

type graphBuilder struct {
	g *CallGraph
	// namedTypes are the module's named (non-interface) types, for
	// interface-dispatch resolution.
	namedTypes []*types.Named
	// ifaceSites are interface-method call sites awaiting resolution.
	ifaceSites []ifaceSite
	// valueRefed marks nodes whose function value was taken; dynCalls
	// are calls through function values, matched by signature.
	valueRefed map[*Node]bool
	dynCalls   []dynCall
	// litCount numbers literals per declared parent for stable names.
	litCount map[*Node]int
	// modPath is the module's import path, trimmed from type names in
	// chain rendering ("internal/core.Model", not "mdsprint/internal/…").
	modPath string
}

// shortType renders a type with module-relative package qualifiers, so
// chain annotations match node names.
func (b *graphBuilder) shortType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		if rest, ok := strings.CutPrefix(p.Path(), b.modPath+"/"); ok {
			return rest
		}
		return p.Path()
	})
}

type ifaceSite struct {
	caller *Node
	iface  *types.Interface
	method *types.Func
	pos    token.Pos
	via    string
}

// declarePackage creates nodes for pkg's declared functions and literals
// and records its named types.
func (b *graphBuilder) declarePackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{
					Name: nodeName(pkg, obj),
					Pkg:  pkg,
					Fn:   obj,
					Decl: d,
					Sig:  obj.Type().(*types.Signature),
				}
				n.HotPath, n.HotPathReason = hotPathAnnotation(d)
				b.g.Nodes = append(b.g.Nodes, n)
				b.g.byFn[obj] = n
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if named, ok := tn.Type().(*types.Named); ok {
						if _, isIface := named.Underlying().(*types.Interface); !isIface {
							b.namedTypes = append(b.namedTypes, named)
						}
					}
				}
			}
		}
	}
}

// addEdges walks body attributing edges to node, descending into nested
// literals with their own nodes.
func (b *graphBuilder) addEdges(pkg *Package, node *Node, body *ast.BlockStmt) {
	if node == nil || body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := b.literalNode(pkg, node, n)
			node.Out = append(node.Out, Edge{Callee: lit, Kind: EdgeClosure, Pos: n.Pos()})
			b.addEdges(pkg, lit, n.Body)
			return false // literal body attributed to the literal node
		case *ast.CallExpr:
			b.addCallEdge(pkg, node, n)
			// Arguments (including function values) are inspected by the
			// surrounding traversal.
		case *ast.Ident:
			b.addValueRef(pkg, node, n, n.Pos())
		case *ast.SelectorExpr:
			// Method values (x.M used as a value, not called) resolve
			// through Selections; the Sel ident resolves through Uses.
			if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if !isCallFun(pkg, n) {
						b.markValueRef(node, fn, n.Pos())
					}
				}
			}
			return true
		}
		return true
	})
}

// literalNode creates (or names) the node of a literal owned by parent.
func (b *graphBuilder) literalNode(pkg *Package, parent *Node, lit *ast.FuncLit) *Node {
	if b.litCount == nil {
		b.litCount = map[*Node]int{}
	}
	b.litCount[parent]++
	sig, _ := pkg.Info.Types[lit].Type.(*types.Signature)
	n := &Node{
		Name: fmt.Sprintf("%s$%d", parent.Name, b.litCount[parent]),
		Pkg:  pkg,
		Lit:  lit,
		Sig:  sig,
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// addCallEdge classifies one call expression.
func (b *graphBuilder) addCallEdge(pkg *Package, caller *Node, call *ast.CallExpr) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: the closure edge added when the
		// traversal reaches the literal already covers it; recording a
		// dynamic call here would smear the site over every same-signature
		// function in the module.
		return
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			b.edgeTo(caller, obj, EdgeStatic, call.Pos(), "")
			return
		case *types.Builtin, *types.TypeName:
			return // builtins and conversions are not calls
		case *types.Var, nil:
			// Call through a function-typed variable (or a literal called
			// in place, handled by the closure edge).
			if sig, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature); ok {
				b.dynCalls = append(b.dynCalls, dynCall{caller: caller, sig: sig, pos: call.Pos()})
			}
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			// Method call: interface dispatch or concrete.
			if fn, ok := sel.Obj().(*types.Func); ok {
				recv := sel.Recv()
				if types.IsInterface(recv) {
					iface, _ := recv.Underlying().(*types.Interface)
					if iface != nil {
						b.ifaceSites = append(b.ifaceSites, ifaceSite{
							caller: caller,
							iface:  iface,
							method: fn,
							pos:    call.Pos(),
							via:    b.shortType(recv) + "." + fn.Name(),
						})
					}
					return
				}
				b.edgeTo(caller, fn, EdgeStatic, call.Pos(), "")
				return
			}
			// Struct field of function type: dynamic call.
			if sig, ok := sel.Obj().Type().(*types.Signature); ok {
				b.dynCalls = append(b.dynCalls, dynCall{caller: caller, sig: sig, pos: call.Pos()})
			}
			return
		}
		// Package-qualified call (pkg.F) or conversion.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			b.edgeTo(caller, fn, EdgeStatic, call.Pos(), "")
			return
		}
	default:
		// Indexed function values, immediately-invoked expressions, etc.
		if sig, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature); ok {
			b.dynCalls = append(b.dynCalls, dynCall{caller: caller, sig: sig, pos: call.Pos()})
		}
	}
}

// addValueRef records a plain identifier reference to a declared
// function outside call position.
func (b *graphBuilder) addValueRef(pkg *Package, caller *Node, id *ast.Ident, pos token.Pos) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if isCallIdent(pkg, id) {
		return
	}
	b.markValueRef(caller, fn, pos)
}

// edgeTo adds a static-call-style edge to a declared function, ignoring
// callees outside the module (stdlib) — those are leaves the analyzers
// model via allowlists/denylists instead.
func (b *graphBuilder) edgeTo(caller *Node, fn *types.Func, kind EdgeKind, pos token.Pos, via string) {
	target := b.g.byFn[fn]
	if target == nil {
		return
	}
	caller.Out = append(caller.Out, Edge{Callee: target, Kind: kind, Pos: pos, Via: via})
}

// markValueRef adds a function-value edge and marks the target callable
// through dynamic calls.
func (b *graphBuilder) markValueRef(caller *Node, fn *types.Func, pos token.Pos) {
	target := b.g.byFn[fn]
	if target == nil {
		return // external function
	}
	caller.Out = append(caller.Out, Edge{Callee: target, Kind: EdgeFuncValue, Pos: pos})
	b.valueRefed[target] = true
}

// resolveDynamic closes interface sites over the module's named types
// and dynamic calls over the value-referenced set.
func (b *graphBuilder) resolveDynamic() {
	// Literals are value-referenced by construction: a closure's value
	// exists the moment it is created.
	for _, n := range b.g.Nodes {
		if n.Lit != nil {
			b.valueRefed[n] = true
		}
	}
	for _, site := range b.ifaceSites {
		for _, named := range b.namedTypes {
			if !types.Implements(named, site.iface) && !types.Implements(types.NewPointer(named), site.iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, site.method.Pkg(), site.method.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if target := b.g.byFn[fn]; target != nil {
				site.caller.Out = append(site.caller.Out, Edge{
					Callee: target, Kind: EdgeInterface, Pos: site.pos, Via: site.via,
				})
			}
		}
	}
	if len(b.dynCalls) == 0 {
		return
	}
	// Deterministic candidate order for dynamic resolution.
	candidates := make([]*Node, 0, len(b.valueRefed))
	for n := range b.valueRefed {
		candidates = append(candidates, n)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name < candidates[j].Name })
	for _, dc := range b.dynCalls {
		if dc.sig == nil {
			continue
		}
		for _, cand := range candidates {
			if cand.Sig == nil || !identicalSig(dc.sig, cand.Sig) {
				continue
			}
			dc.caller.Out = append(dc.caller.Out, Edge{Callee: cand, Kind: EdgeDynamic, Pos: dc.pos})
		}
	}
}

// identicalSig compares two signatures ignoring receivers (a method
// value's receiver is already bound when it flows as a value).
func identicalSig(a, b *types.Signature) bool {
	return types.Identical(
		types.NewSignatureType(nil, nil, nil, a.Params(), a.Results(), a.Variadic()),
		types.NewSignatureType(nil, nil, nil, b.Params(), b.Results(), b.Variadic()),
	)
}

// isCallFun reports whether sel is the Fun of a call (so x.M() is a call,
// not a method value). The parser links this through the expression's
// parent, which Inspect does not expose; instead the builder records
// calls first, so value detection only needs to know whether this exact
// selector is some call's Fun — tracked via position sets.
func isCallFun(pkg *Package, sel *ast.SelectorExpr) bool {
	return callFuns(pkg)[sel]
}

func isCallIdent(pkg *Package, id *ast.Ident) bool {
	return callFuns(pkg)[id]
}

// callFuns memoizes, per package, the set of expressions appearing in
// call-function position (with parens stripped).
func callFuns(pkg *Package) map[ast.Expr]bool {
	if pkg.callFuns != nil {
		return pkg.callFuns
	}
	set := map[ast.Expr]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				set[unparen(call.Fun)] = true
			}
			return true
		})
	}
	pkg.callFuns = set
	return set
}

// nodeName renders a stable module-relative function name:
// "internal/queuesim.(*Runner).RunInto" for subpackages, and the module
// path's base for the root package ("mdsprint.BestTimeout").
func nodeName(pkg *Package, fn *types.Func) string {
	var sb strings.Builder
	if pkg.Rel != "" && pkg.Rel != "." {
		sb.WriteString(pkg.Rel)
		sb.WriteString(".")
	} else if base := pathBase(pkg.Path); base != "" {
		sb.WriteString(base)
		sb.WriteString(".")
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			sb.WriteString("(*" + typeBaseName(ptr.Elem()) + ").")
		} else {
			sb.WriteString(typeBaseName(t) + ".")
		}
	}
	sb.WriteString(fn.Name())
	return sb.String()
}

// pathBase returns the last element of an import path.
func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// typeBaseName returns a named type's bare name.
func typeBaseName(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj() != nil {
		return named.Obj().Name()
	}
	return types.TypeString(t, func(p *types.Package) string { return "" })
}

// sortEdges orders an adjacency list for deterministic BFS.
func sortEdges(edges []Edge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Callee.Name != edges[j].Callee.Name {
			return edges[i].Callee.Name < edges[j].Callee.Name
		}
		return edges[i].Pos < edges[j].Pos
	})
}

// Reach computes the closure of roots over the graph, returning for each
// reached node the edge it was first discovered through (BFS parents, so
// chains are shortest). Roots map to a nil parent. allow filters nodes:
// a node for which allow returns false is neither reported nor traversed
// (the barrier the detflow allowlist uses). A nil allow admits all.
func (g *CallGraph) Reach(roots []*Node, allow func(*Node) bool) map[*Node]*ReachedVia {
	reached := map[*Node]*ReachedVia{}
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if r == nil || reached[r] != nil {
			continue
		}
		if allow != nil && !allow(r) {
			continue
		}
		reached[r] = &ReachedVia{Node: r}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := range cur.Out {
			e := &cur.Out[i]
			if reached[e.Callee] != nil {
				continue
			}
			if allow != nil && !allow(e.Callee) {
				continue
			}
			reached[e.Callee] = &ReachedVia{Node: e.Callee, From: reached[cur], Edge: e}
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// ReachedVia is one node's discovery record: the BFS-shortest path to a
// root is recovered by following From.
type ReachedVia struct {
	Node *Node
	From *ReachedVia // nil for roots
	Edge *Edge       // edge From -> Node, nil for roots
}

// Root returns the chain's root node.
func (r *ReachedVia) Root() *Node {
	for r.From != nil {
		r = r.From
	}
	return r.Node
}

// Chain renders the call chain root → ... → node. Interface hops are
// annotated with the dispatching method. The root is included; a root
// node's chain is just its own name.
func (r *ReachedVia) Chain() string {
	var parts []string
	for cur := r; cur != nil; cur = cur.From {
		name := cur.Node.Name
		if cur.Edge != nil && cur.Edge.Kind == EdgeInterface {
			name += " [via " + cur.Edge.Via + "]"
		}
		parts = append(parts, name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}
