package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc turns the runtime zero-allocations-per-run budget
// (testing.AllocsPerRun in queuesim/sim) into a compile-time proof over
// the whole module: functions annotated
//
//	//sprint:hotpath <note>
//
// are closed over the call graph — static calls, closures handed to the
// pooled engine's Register, interface dispatch (tracers, distributions),
// signature-matched dynamic calls — and every allocating construct
// anywhere in that closure is flagged with the call chain that reaches
// it. The dynamic budget only covers the paths a test happens to drive;
// this covers every path the compiler can see.
//
// Flagged constructs: make, new, escaping composite literals (&T{...},
// slice/map literals), closure creation, interface boxing at call sites
// and conversions, string concatenation and string<->[]byte conversions,
// append (backing-array growth), goroutine launches, and calls into
// known-allocating stdlib entry points (fmt, log, errors, sort, ...).
//
// Two construct classes are exempt by rule rather than by suppression,
// because the zero-allocation contract is about *steady state*:
//
//   - Cold paths: a conditional block that ends by panicking or by
//     returning a non-nil error is failure handling; steady state never
//     executes it, so its allocations (fmt.Errorf, panic(fmt.Sprintf))
//     are free.
//   - Amortized self-appends: x = append(x, ...) where x is storage that
//     outlives the call (a field, or an element of one) reaches capacity
//     and stops growing; the AllocsPerRun tests pin that steady state.
//     Appends into plain locals still allocate every call and stay
//     flagged.
//
// Everything else that is amortized but does not fit those shapes (slab
// doubling via make, first-use registration) carries a reasoned
// //lint:ignore hotalloc suppression, tracked in the debt ledger.
//
// The ZeroAllocs tests do not make it redundant. Their alloc matrix
// drives Pareto arrivals with exponential service (SERPT adds
// lognormal), so an escaping new(float64) seeded into dist's
// Erlang.Sample, Hyperexponential.Sample, Uniform.Sample or
// (*Sequence).Sample fails hotalloc and no ZeroAllocs test.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in the call-graph closure of //sprint:hotpath roots",
	Run:  runHotAlloc,
}

// hotPathDirective is the annotation grammar's marker. The annotation
// goes in the function's doc comment; everything after the marker is a
// free-text note recorded on the node.
const hotPathDirective = "sprint:hotpath"

// hotPathAnnotation reports whether fn's doc comment carries a
// //sprint:hotpath directive, plus its note.
func hotPathAnnotation(fn *ast.FuncDecl) (bool, string) {
	if fn.Doc == nil {
		return false, ""
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, hotPathDirective); ok {
			if rest == "" || strings.HasPrefix(rest, " ") {
				return true, strings.TrimSpace(rest)
			}
		}
	}
	return false, ""
}

// hotallocFacts is the module-level state shared by every per-package
// hotalloc pass: the closure of the annotated roots, read-only once
// built.
type hotallocFacts struct {
	reach map[*Node]*ReachedVia
}

// hotFacts builds (once) the closure of the //sprint:hotpath roots.
func (m *Module) hotFacts() *hotallocFacts {
	m.hotOnce.Do(func() {
		g := m.Graph()
		var roots []*Node
		for _, n := range g.Nodes {
			if n.HotPath {
				roots = append(roots, n)
			}
		}
		m.hot = &hotallocFacts{reach: g.Reach(roots, nil)}
	})
	return m.hot
}

func runHotAlloc(pass *Pass) {
	facts := pass.Mod.hotFacts()
	if len(facts.reach) == 0 {
		return
	}
	// Deterministic order: nodes are declared in (package, position)
	// order by the builder; filter to this pass's package.
	for _, n := range pass.Mod.Graph().Nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		rv := facts.reach[n]
		if rv == nil {
			continue
		}
		scanAllocs(pass, n, rv)
	}
}

// scanAllocs walks one closure member's body and reports allocating
// constructs. Nested literals are skipped: they are separate nodes and
// are scanned under their own chain (their creation is flagged here).
func scanAllocs(pass *Pass, n *Node, rv *ReachedVia) {
	body := n.Body()
	if body == nil {
		return
	}
	info := n.Pkg.Info
	cold := coldRanges(info, body)
	amort := amortizedAppends(info, body)
	report := func(pos token.Pos, what string) {
		for _, r := range cold {
			if pos >= r[0] && pos < r[1] {
				return
			}
		}
		pass.Reportf(pos, "%s on hot path (reached via %s)", what, rv.Chain())
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "closure creation allocates")
			return false
		case *ast.CallExpr:
			scanCallAllocs(pass, info, x, amort, report)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "composite literal escapes via &")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(x.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && isStringType(tv.Type) {
					report(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.GoStmt:
			report(x.Pos(), "goroutine launch allocates its stack")
		}
		return true
	})
}

// coldRanges collects the source ranges of conditional blocks that end
// by panicking or by returning a non-nil error. Allocations there are
// failure-path work the steady state never executes, so the zero-alloc
// contract does not cover them. (The heuristic is per-block: an
// allocation earlier in a diverging block is also exempt, which errs on
// the quiet side.)
func coldRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // scanned under its own node
		case *ast.IfStmt:
			if blockDiverges(info, x.Body.List) {
				out = append(out, [2]token.Pos{x.Body.Pos(), x.Body.End()})
			}
			if eb, ok := x.Else.(*ast.BlockStmt); ok && blockDiverges(info, eb.List) {
				out = append(out, [2]token.Pos{eb.Pos(), eb.End()})
			}
		case *ast.CaseClause:
			if len(x.Body) > 0 && blockDiverges(info, x.Body) {
				out = append(out, [2]token.Pos{x.Body[0].Pos(), x.End()})
			}
		}
		return true
	})
	return out
}

// blockDiverges reports whether a statement list ends in panic(...) or in
// a return carrying a non-nil error.
func blockDiverges(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if id, ok := unparen(res).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if tv, ok := info.Types[res]; ok && tv.Type != nil && isErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// amortizedAppends collects append calls of the reuse idiom the module's
// pooling is built on:
//
//	x = append(x, ...)        // including x = append(x[:n], ...)
//
// where x denotes storage that outlives the call (a field selector, or
// an element of one). Such a backing array reaches steady-state capacity
// and stops growing — the runtime AllocsPerRun tests pin exactly that —
// so flagging every site would only convert the core idiom into
// suppression debt. Appends into plain locals stay flagged.
func amortizedAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		arg0 := unparen(call.Args[0])
		if sl, ok := arg0.(*ast.SliceExpr); ok {
			arg0 = unparen(sl.X)
		}
		lhs := unparen(as.Lhs[0])
		if longLived(lhs) && types.ExprString(lhs) == types.ExprString(arg0) {
			out[call] = true
		}
		return true
	})
	return out
}

// longLived reports whether expr denotes storage owned by something that
// outlives the enclosing call: a field (r.buf, out.RTs) or an element of
// one (r.mres.ByClass[k]).
func longLived(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return longLived(e.X)
	case *ast.StarExpr:
		return longLived(e.X)
	}
	return false
}

// relQual renders type names with module-relative package paths, so
// messages match call-graph node names ("internal/obs.QueryEvent").
func relQual(pkg *Package) types.Qualifier {
	mod := pkg.Path
	if pkg.Rel != "." && pkg.Rel != "" {
		mod = strings.TrimSuffix(pkg.Path, "/"+pkg.Rel)
	}
	return func(p *types.Package) string {
		if rest, ok := strings.CutPrefix(p.Path(), mod+"/"); ok {
			return rest
		}
		return p.Path()
	}
}

// scanCallAllocs classifies one call expression on the hot path.
func scanCallAllocs(pass *Pass, info *types.Info, call *ast.CallExpr, amort map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	qual := types.Qualifier(nil)
	if pass != nil {
		qual = relQual(pass.Pkg)
	}
	fun := unparen(call.Fun)
	// Conversions: T(x). Flag interface boxing and string<->byte-slice
	// copies; numeric and same-kind conversions are free.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			if from, ok := info.Types[call.Args[0]]; ok {
				switch {
				case types.IsInterface(to.Underlying()) && !types.IsInterface(from.Type.Underlying()) && !isPointerLike(from.Type):
					report(call.Pos(), "conversion boxes "+types.TypeString(from.Type, qual)+" into an interface")
				case isStringByteConversion(from.Type, to):
					report(call.Pos(), "string conversion copies its bytes")
				}
			}
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if !amort[call] {
					report(call.Pos(), "append may grow its backing array")
				}
			}
			return
		}
	}
	// Known-allocating callees (fmt, log, errors, sort, ...).
	if pass != nil {
		name := calleeName(pass.Pkg, call)
		if name != "" && matchesAnyGlob(hotAllocCallees, name) {
			report(call.Pos(), "call to "+name+" allocates")
			return
		}
	}
	// Interface boxing at the call site: a concrete non-pointer argument
	// passed to an interface parameter is heap-boxed.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if types.IsInterface(at.Type.Underlying()) || isPointerLike(at.Type) {
			continue
		}
		report(arg.Pos(), "argument boxes "+types.TypeString(at.Type, qual)+" into interface "+types.TypeString(pt, qual))
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call allocates its argument slice")
	}
}

// callSignature resolves the called function's signature, nil for
// builtins and conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isPointerLike reports whether boxing t into an interface stores the
// value directly (no heap copy): pointers, channels, maps, funcs,
// unsafe pointers.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConversion reports whether from->to crosses the
// string/[]byte/[]rune boundary (which copies).
func isStringByteConversion(from, to types.Type) bool {
	return (isStringType(from) && isByteOrRuneSlice(to)) ||
		(isByteOrRuneSlice(from) && isStringType(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// hotAllocCallees are stdlib entry points that allocate on every call;
// reaching one from a hot-path root is always a finding.
var hotAllocCallees = []string{
	"fmt.*",
	"log.*",
	"errors.*",
	"sort.Slice*",
	"sort.Sort*",
	"strings.Join",
	"strings.Repeat",
	"strings.Split*",
	"strings.Fields",
	"strings.Replace*",
	"strconv.Format*",
	"strconv.Quote*",
	"strconv.Itoa",
}

// HotPathRoots lists the annotated roots of a loaded module in
// deterministic order — exposed for tests and the -hotpaths listing.
func HotPathRoots(m *Module) []string {
	var out []string
	for _, n := range m.Graph().Nodes {
		if n.HotPath {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out
}
