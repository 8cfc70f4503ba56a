// Package lint implements sprintlint, this repository's project-specific
// static-analysis pass. The paper's methodology rests on the queue
// simulator being a reproducible function of its inputs: effective
// sprint-rate calibration (Section 2.3) replays the simulator until it
// matches observed response times, and the annealing search (Section 4)
// assumes repeated evaluations are comparable. The analyzers here enforce
// the invariants that keep that true — no wall-clock, global-RNG,
// environment or map-order dependence in or reachable from deterministic
// packages (detflow), no allocation on the simulator's hot path
// (hotalloc), no bare float equality, no silently dropped errors — plus
// goroutine-cancellation, pooled-slot, span-closing and exported-docs
// checks. Lock copies are go vet's copylocks check, which the merge gate
// already runs.
//
// The driver is stdlib-only (go/parser, go/ast, go/types): it loads every
// package in the module, type-checks it, runs each analyzer, and reports
// file:line diagnostics. Diagnostics can be suppressed per line with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// either trailing the offending line or on the line directly above it.
// The reason is mandatory; a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding, positioned relative to the module
// root so output is stable across machines.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the package's import path; Rel is the path relative to the
	// module root ("." for the root package); Root is the module root
	// directory (diagnostic file names are relative to it).
	Path string
	Rel  string
	Dir  string
	Root string
	Fset *token.FileSet
	// Files holds the package's non-test syntax trees, sorted by file
	// name for deterministic traversal.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// callFuns memoizes the set of expressions in call-function position
	// (built once, serially, by the call-graph builder).
	callFuns map[ast.Expr]bool
}

// Module is the whole loaded module plus the interprocedural state the
// call-graph-aware analyzers share. The graph and per-analyzer facts are
// built once (lazily, or eagerly by the parallel driver before it fans
// out) and are read-only afterwards, so per-package passes can run
// concurrently.
type Module struct {
	Pkgs []*Package

	graphOnce sync.Once
	graph     *CallGraph

	hotOnce sync.Once
	hot     *hotallocFacts

	detOnce sync.Once
	det     map[*Node]*ReachedVia
}

// Graph returns the module's call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	m.graphOnce.Do(func() { m.graph = buildCallGraph(m.Pkgs) })
	return m.graph
}

// Pass carries one analyzer's run over one package and collects its
// diagnostics. Mod gives interprocedural analyzers the module-wide call
// graph; file-local analyzers never touch it.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Mod      *Module
	Cfg      *Config
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     p.Pkg.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// relFile renders a diagnostic file name relative to the module root so
// output is stable across checkouts.
func (p *Package) relFile(name string) string {
	if p.Root == "" {
		return name
	}
	if rel, err := filepath.Rel(p.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in reporting order. The final two are
// the interprocedural, call-graph-aware analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		ErrDrop,
		ExportedDoc,
		CtxLeak,
		PoolEscape,
		SpanLeak,
		HotAlloc,
		DetFlow,
	}
}

// AnalyzerByName resolves one analyzer; nil when unknown.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// funcDisplayName renders the module-relative name of fn used by the
// FloatEqAllow config list, e.g. "internal/stats.ApproxEqual".
func funcDisplayName(pkg *Package, fn *ast.FuncDecl) string {
	if fn == nil || fn.Name == nil {
		return ""
	}
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		name = recvTypeName(fn.Recv.List[0].Type) + "." + name
	}
	if pkg.Rel == "." {
		return name
	}
	return pkg.Rel + "." + name
}

// recvTypeName extracts the receiver's base type name ("T" for both T and
// *T receivers).
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// globMatch matches name against pattern, where a trailing '*' in the
// pattern matches any suffix ("fmt.Fprint*" covers Fprint, Fprintf,
// Fprintln).
func globMatch(pattern, name string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == name
}

// matchesAnyGlob matches name against a pattern list.
func matchesAnyGlob(patterns []string, name string) bool {
	for _, p := range patterns {
		if globMatch(p, name) {
			return true
		}
	}
	return false
}
