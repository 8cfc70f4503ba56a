package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags discarded error returns: calls used as statements whose
// results include an error, and assignments of an error result to the
// blank identifier. Silently dropped errors are how a corrupted dataset
// or a failed trace write masquerades as a clean run. Deferred Close
// calls are exempt (best-effort cleanup on read paths); other callees can
// be allowlisted in the config or suppressed with a reason. No other gate
// sees this: the fixture's three drops, seeded into internal/sweep, pass
// go vet and the race-enabled tests.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "forbid discarded error returns outside the allowlist",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(n.X).(*ast.CallExpr); ok {
					pass.checkDroppedCall(call, false)
				}
			case *ast.DeferStmt:
				pass.checkDroppedCall(n.Call, true)
			case *ast.GoStmt:
				pass.checkDroppedCall(n.Call, false)
			case *ast.AssignStmt:
				pass.checkBlankAssign(n)
			}
			return true
		})
	}
}

// checkDroppedCall reports a statement-position call whose result set
// includes an error.
func (p *Pass) checkDroppedCall(call *ast.CallExpr, deferred bool) {
	if !resultsIncludeError(p.Pkg.Info, call) {
		return
	}
	name := calleeName(p.Pkg, call)
	if matchesAnyGlob(p.Cfg.ErrDropAllow, name) {
		return
	}
	if deferred && strings.HasSuffix(name, ".Close") {
		return
	}
	if name == "" {
		name = "call"
	}
	p.Reportf(call.Pos(), "error result of %s is discarded; handle it, allowlist the callee, or //lint:ignore errdrop with a reason", name)
}

// checkBlankAssign reports error results assigned to the blank
// identifier.
func (p *Pass) checkBlankAssign(assign *ast.AssignStmt) {
	info := p.Pkg.Info
	// Case 1: one call fanning out to multiple targets.
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		call, ok := unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(assign.Lhs) {
			return
		}
		for i, lhs := range assign.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				p.reportBlank(call)
				return
			}
		}
		return
	}
	// Case 2: pairwise assignment; only flag `_ = <call returning error>`.
	for i, lhs := range assign.Lhs {
		if !isBlank(lhs) || i >= len(assign.Rhs) {
			continue
		}
		call, ok := unparen(assign.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if tv, ok := info.Types[call]; ok && tv.Type != nil && isErrorType(tv.Type) {
			p.reportBlank(call)
		}
	}
}

func (p *Pass) reportBlank(call *ast.CallExpr) {
	name := calleeName(p.Pkg, call)
	if matchesAnyGlob(p.Cfg.ErrDropAllow, name) {
		return
	}
	if name == "" {
		name = "call"
	}
	p.Reportf(call.Pos(), "error result of %s assigned to _; handle it, allowlist the callee, or //lint:ignore errdrop with a reason", name)
}

// resultsIncludeError reports whether call's results contain an error.
func resultsIncludeError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// calleeName returns the callee's full name for allowlist matching:
// "fmt.Println" for package functions, "(*bytes.Buffer).WriteString" for
// methods; module-internal packages render module-relative. Unresolvable
// callees (function values, literals) return "".
func calleeName(pkg *Package, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	name := fn.FullName()
	// Make module-internal names stable and concise: strip the module
	// path prefix so entries read "(*internal/obs.Registry).Write".
	if pkg.Path != "" {
		modPath := pkg.Path
		if pkg.Rel != "." && strings.HasSuffix(modPath, "/"+pkg.Rel) {
			modPath = strings.TrimSuffix(modPath, "/"+pkg.Rel)
		}
		name = strings.ReplaceAll(name, modPath+"/", "")
		name = strings.ReplaceAll(name, modPath+".", "")
	}
	return name
}

func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

func unparen(expr ast.Expr) ast.Expr {
	for {
		p, ok := expr.(*ast.ParenExpr)
		if !ok {
			return expr
		}
		expr = p.X
	}
}
