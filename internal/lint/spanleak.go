package lint

import (
	"go/ast"
	"go/types"
)

// SpanLeak enforces span hygiene module-wide: every span created with
// StartSpan / StartChild / StartSpanCtx must either be ended in the same
// function (an explicit or deferred .End(), including from a closure) or
// handed to the caller via a return. An un-ended span never goes back to
// the tracer's free list, so a leak silently shrinks the span pool and —
// worse — leaves a hole in every exported trace. Ownership transfers the
// analyzer cannot see (a span parked in a struct and ended elsewhere) may
// carry a reasoned //lint:ignore spanleak. No other gate sees this: an
// un-ended child span and a discarded StartSpanCtx, seeded into sweep's
// batch path, pass go vet and the race-enabled tests.
var SpanLeak = &Analyzer{
	Name: "spanleak",
	Doc:  "require every StartSpan/StartChild/StartSpanCtx span to be ended or returned to the caller",
	Run:  runSpanLeak,
}

// spanStarters names the constructors whose *Span result must be owned.
var spanStarters = map[string]bool{
	"StartSpan":    true,
	"StartChild":   true,
	"StartSpanCtx": true,
}

func runSpanLeak(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSpanLeaks(pass, info, fn)
		}
	}
}

// checkSpanLeaks flags span-producing calls in fn whose result is
// discarded or bound to a variable that is neither ended nor returned
// anywhere in fn's body (closures included).
func checkSpanLeaks(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	// First pass: which objects get .End() called, and which escape via a
	// return statement (ownership transferred to the caller).
	ended := map[types.Object]bool{}
	returned := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "End" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					ended[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
			}
		}
		return true
	})
	// Second pass: every span creation must be covered.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, name, ok := spanStartCall(info, n.Rhs[0])
			if !ok {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				// Parked in a field or index: ownership leaves the
				// function in a way the analyzer cannot follow; trust it.
				return true
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "span from %s discarded in %s; an un-ended span never returns to the pool — end it or explain with //lint:ignore spanleak", name, fn.Name.Name)
				return true
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return true
			}
			if !ended[obj] && !returned[obj] {
				pass.Reportf(call.Pos(), "span %s from %s is never ended in %s; pair it with %s.End() (defer works) or return it — or explain with //lint:ignore spanleak", id.Name, name, fn.Name.Name, id.Name)
			}
		case *ast.ExprStmt:
			if call, name, ok := spanStartCall(info, n.X); ok {
				pass.Reportf(call.Pos(), "span from %s discarded in %s; an un-ended span never returns to the pool — end it or explain with //lint:ignore spanleak", name, fn.Name.Name)
			}
		}
		return true
	})
}

// spanStartCall reports whether e is a call to one of the span
// constructors returning a *Span, along with the constructor's name.
func spanStartCall(info *types.Info, e ast.Expr) (*ast.CallExpr, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return nil, "", false
	}
	if !spanStarters[name] {
		return nil, "", false
	}
	tv, ok := info.Types[ast.Expr(call)]
	if !ok {
		return nil, "", false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return nil, "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "Span" {
		return nil, "", false
	}
	return call, name, true
}
