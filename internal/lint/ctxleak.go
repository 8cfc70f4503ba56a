package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// CtxLeak enforces cancellation hygiene in the configured concurrency
// packages: a function that spawns goroutines but accepts no
// context.Context gives its callers no way to abandon the work, which is
// exactly how a stalled profiler run or a wedged HTTP replay outlives the
// decision that requested it. Fork-joins that provably complete (bounded
// workers, all results collected before return) may carry a reasoned
// //lint:ignore ctxleak. No other gate sees this: the fixture's two
// spawns, seeded into internal/sweep, pass go vet and the race-enabled
// tests (the goroutines finish, so nothing leaks at test time).
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "forbid goroutine spawns in functions without a context.Context parameter in concurrency packages",
	Run:  runCtxLeak,
}

func runCtxLeak(pass *Pass) {
	if !slices.Contains(pass.Cfg.CtxPackages, pass.Pkg.Rel) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if funcAcceptsContext(info, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "goroutine spawned in %s, which takes no context.Context; callers cannot cancel it — add a ctx parameter or explain with //lint:ignore ctxleak", fn.Name.Name)
				}
				return true
			})
		}
	}
}

// funcAcceptsContext reports whether any parameter of fn is a
// context.Context.
func funcAcceptsContext(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
