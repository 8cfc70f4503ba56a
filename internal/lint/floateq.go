package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands. Exact float
// equality silently diverges across compilers, optimisation levels and
// accumulated rounding — the calibration bisection and the annealing
// acceptance tests both compare model outputs, where a bitwise compare is
// almost never what is meant. Use stats.ApproxEqual / stats.ApproxZero,
// or suppress with a reason where exact comparison is the point (NaN
// guards, sentinel defaults, sorted-neighbour dedup). No other gate sees
// this: the fixture's comparisons, seeded into internal/stats, pass go
// vet and the race-enabled tests.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "forbid ==/!= between floating-point operands outside epsilon helpers",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			if fn != nil && matchesAnyGlob(pass.Cfg.FloatEqAllow, funcDisplayName(pass.Pkg, fn)) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if isFloat(info, be.X) || isFloat(info, be.Y) {
					pass.Reportf(be.OpPos, "floating-point %s comparison; use stats.ApproxEqual or explain with //lint:ignore floateq", be.Op)
				}
				return true
			})
		}
	}
}

// isFloat reports whether expr has floating-point type.
func isFloat(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
