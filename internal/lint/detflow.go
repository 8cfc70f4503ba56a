package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// DetFlow enforces simulator reproducibility: calibration (Section 2.3)
// and annealing (Section 4) replay the simulator and assume identical
// inputs produce identical outputs. Every function declared in a
// deterministic package is a root; DetFlow closes the roots over the
// module call graph and flags each nondeterminism source in the closure.
// A source in a deterministic package's own code is reported with a
// fix-it hint. A source reached in another package — the helper in
// internal/core that stamps wall-clock time, the registry walk that
// ranges a map — is reported with the full propagation chain back to
// the root. The call graph has no node for a package-level initializer,
// so the deterministic packages' var initializers are scanned as well.
//
// Sources: wall-clock reads (time.Now/Since/Until), the global
// math/rand source, environment reads (os.Getenv/LookupEnv/Environ),
// map iteration (order varies run to run), and goroutine launches
// (scheduling order is a race unless results are committed by index).
// A deterministic package's own goroutine launches are not reported:
// its fan-outs commit results by index, which its run-twice and
// worker-count tests pin. Randomness flows through internal/dist's
// seeded RNG and wall-clock reads through an injected obs.Clock; the
// clock implementations are barriers (detflowBarriers), neither
// reported nor traversed. No other gate sees a latent source: a clock
// read, a global rand draw, a map range and an os.Getenv seeded into
// sweep's Evaluate pass go vet and the race-enabled sweep, calib and
// root-package tests, since the seeded values never reach a result.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "forbid nondeterminism in, or reachable from, deterministic packages",
	Run:  runDetFlow,
}

// detflowBarriers are the call-graph node-name globs detflow neither
// reports nor traverses: the obs.Clock implementations. Callers choose a
// manual clock for reproducible runs; measured wall time flows only into
// metrics, never into simulation results.
var detflowBarriers = []string{
	"internal/obs.systemClock.*",
	"internal/obs.ClockOr",
	"internal/obs.(*ManualClock).*",
}

// detReach builds (once) the closure of every function declared in a
// deterministic package, stopping at detflowBarriers.
func (m *Module) detReach(cfg *Config) map[*Node]*ReachedVia {
	m.detOnce.Do(func() {
		g := m.Graph()
		var roots []*Node
		for _, n := range g.Nodes {
			if n.Fn != nil && slices.Contains(cfg.DeterministicPackages, n.Pkg.Rel) {
				roots = append(roots, n)
			}
		}
		m.det = g.Reach(roots, func(n *Node) bool {
			return !matchesAnyGlob(detflowBarriers, n.Name)
		})
	})
	return m.det
}

func runDetFlow(pass *Pass) {
	inDet := slices.Contains(pass.Cfg.DeterministicPackages, pass.Pkg.Rel)
	reach := pass.Mod.detReach(pass.Cfg)
	for _, n := range pass.Mod.Graph().Nodes {
		rv := reach[n]
		if n.Pkg != pass.Pkg || rv == nil || n.Body() == nil {
			continue
		}
		if inDet {
			rv = nil // in-package finding: no chain to render
		}
		scanDetSources(pass, n.Body(), false, rv)
	}
	if !inDet {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				scanDetSources(pass, gd, true, nil)
			}
		}
	}
}

// scanDetSources walks root, a function body or a package-level var
// declaration, for nondeterminism sources. Literals nested in a function
// body are graph nodes of their own and scanned when reached; under a
// package-level initializer (inits) they have no node and are scanned
// here. rv is nil for a source in a deterministic package's own code,
// which is reported with a fix-it hint; otherwise it is the chain the
// source was reached through.
func scanDetSources(pass *Pass, root ast.Node, inits bool, rv *ReachedVia) {
	info := pass.Pkg.Info
	body, _ := root.(*ast.BlockStmt) // map ranges occur only in function bodies
	report := func(pos token.Pos, what, hint string) {
		if rv == nil {
			pass.Reportf(pos, "%s in deterministic package; %s", what, hint)
			return
		}
		pass.Reportf(pos, "%s reachable from deterministic entry point %s (via %s)",
			what, rv.Root().Name, rv.Chain())
	}
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if inits {
				scanDetSources(pass, x.Body, true, rv)
			}
			return false
		case *ast.SelectorExpr:
			pkgPath, ok := selectorPackage(info, x)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && wallClockFuncs[x.Sel.Name]:
				report(x.Pos(), "wall-clock read time."+x.Sel.Name, "inject an obs.Clock instead")
			case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
				report(x.Pos(), "global math/rand use "+x.Sel.Name, "draw from internal/dist's seeded RNG instead")
			case pkgPath == "os" && envReadFuncs[x.Sel.Name]:
				report(x.Pos(), "environment read os."+x.Sel.Name, "pass the setting in as an input instead")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !orderInsensitiveRange(info, body, x) {
					report(x.Pos(), "map iteration (order varies run to run)", "sort the keys first")
				}
			}
		case *ast.GoStmt:
			if rv != nil {
				report(x.Pos(), "goroutine launch (scheduling order escapes)", "")
			}
		}
		return true
	})
}

// wallClockFuncs are the time package's clock-reading entry points.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// envReadFuncs are the os package's environment-reading entry points.
var envReadFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// selectorPackage resolves sel's qualifier to an imported package path
// when sel is a package-qualified reference (pkg.Name).
func selectorPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pkgName.Imported().Path(), true
}

// orderInsensitiveRange recognizes the benign map-range idioms: a body
// that only counts, or one that only collects keys/values into slices
// that the enclosing function then sorts —
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// Counting is order-independent outright; collection is only exempt
// when every collected slice is passed to a sort/slices call after the
// loop (collect-without-sort still leaks iteration order).
func orderInsensitiveRange(info *types.Info, enclosing *ast.BlockStmt, r *ast.RangeStmt) bool {
	collected := map[types.Object]bool{}
	for _, stmt := range r.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			continue
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			call, ok := unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return false
			}
			lhs, ok := unparen(s.Lhs[0]).(*ast.Ident)
			if !ok {
				return false
			}
			if obj := info.ObjectOf(lhs); obj != nil {
				collected[obj] = true
			}
		default:
			return false
		}
	}
	if len(collected) == 0 {
		return true // pure counting
	}
	sorted := 0
	ast.Inspect(enclosing, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := selectorPackage(info, sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := unparen(arg).(*ast.Ident); ok && collected[info.ObjectOf(id)] {
				collected[info.ObjectOf(id)] = false
				sorted++
			}
		}
		return true
	})
	return sorted == len(collected)
}
