package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolEscape guards the allocation-free simulator hot path: pooled
// objects (slab-resident queries and event slots) are recycled the moment
// they depart or fire, so a closure that captures one — rather than its
// stable pool index — holds a reference whose meaning silently changes
// when the slot is re-tenanted. That is exactly the bug class the pooled
// engine's generation-checked handles exist to prevent, and it is also a
// liveness leak: a captured pointer pins the slab's backing array in the
// closure's environment. Inside packages that declare a configured pooled
// type, any function literal whose free variables include a value of that
// type (or a pointer to it) is flagged; pass the int32 pool index into
// the closure instead, or carry the engine/runner and resolve the index
// at call time. No other gate sees this: a closure over the arriving
// *query, seeded into queuesim's arrival handler, passes go vet, the
// race-enabled tests and the ZeroAllocs tests (it does not escape).
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "forbid closures capturing pooled slab objects; capture the pool index instead",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	pooled := pooledTypesFor(pass)
	if len(pooled) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			reported := map[*types.Var]bool{}
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || v.IsField() || reported[v] {
					return true
				}
				// Free variable: declared outside the literal's extent.
				if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
					return true
				}
				// Package-level variables are not pool slots.
				if v.Parent() == pass.Pkg.Types.Scope() {
					return true
				}
				name, isPooled := pooledTypeName(v.Type(), pooled)
				if !isPooled {
					return true
				}
				reported[v] = true
				pass.Reportf(id.Pos(), "closure captures pooled %s %q; the slot is recycled after release and the reference goes stale — capture the pool index (int32) instead", name, v.Name())
				return true
			})
			return true
		})
	}
}

// pooledTypesFor resolves the configured pooled type names declared by
// this package.
func pooledTypesFor(pass *Pass) map[*types.Named]string {
	pooled := map[*types.Named]string{}
	for _, entry := range pass.Cfg.PooledTypes {
		pkgRel, typeName := ".", entry
		if i := strings.LastIndex(entry, "."); i >= 0 {
			pkgRel, typeName = entry[:i], entry[i+1:]
		}
		if pass.Pkg.Rel != pkgRel {
			continue
		}
		obj, ok := pass.Pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok {
			pooled[named] = typeName
		}
	}
	return pooled
}

// pooledTypeName reports whether t is a configured pooled type or a
// pointer to one, returning its display name.
func pooledTypeName(t types.Type, pooled map[*types.Named]string) (string, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if name, ok := pooled[named]; ok {
			return name, true
		}
	}
	return "", false
}
