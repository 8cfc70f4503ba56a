package lint

import (
	"fmt"
	"go/ast"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// RunOpts configures a module lint run.
type RunOpts struct {
	// Config is the policy; nil means DefaultConfig.
	Config *Config
	// Only restricts the analyzer suite; nil or empty runs everything.
	// Stale-suppression detection only runs with the full suite (a
	// restricted run cannot tell a stale suppression from one whose
	// analyzer simply did not run).
	Only []string
}

// RunResult is one module lint run's full output.
type RunResult struct {
	// Diagnostics are the surviving (unsuppressed) findings, sorted by
	// (file, line, col, analyzer).
	Diagnostics []Diagnostic
	// Suppressions is the active //lint:ignore inventory — the
	// suppression debt the baseline ledger tracks — sorted by position.
	Suppressions []SuppressionRecord
	// HotPathRoots are the //sprint:hotpath-annotated functions, sorted.
	HotPathRoots []string
}

// RunModule loads the module rooted at (or above) dir, runs the
// selected analyzers over every package on GOMAXPROCS workers, and
// returns diagnostics plus the suppression inventory sorted by
// position. An error means the module could not be loaded or
// type-checked — distinct from "diagnostics found". Interprocedural
// facts (call graph, hot-path closure, determinism taint) are built
// serially before the fan-out and are read-only afterwards, and the
// merged output is sorted, so the result is bit-identical at any
// GOMAXPROCS.
func RunModule(dir string, opts RunOpts) (*RunResult, error) {
	cfg := opts.Config
	if cfg == nil {
		cfg = DefaultConfig()
	}
	analyzers := Analyzers()
	if len(opts.Only) > 0 {
		analyzers = analyzers[:0:0]
		for _, name := range opts.Only {
			a := AnalyzerByName(name)
			if a == nil {
				return nil, fmt.Errorf("lint: unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}
	pkgs, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{Pkgs: pkgs}
	// Interprocedural state is built once, before the parallel phase:
	// the per-package passes then only read it.
	for _, a := range analyzers {
		switch a {
		case HotAlloc:
			mod.hotFacts()
		case DetFlow:
			mod.detReach(cfg)
		}
	}
	fullSuite := len(opts.Only) == 0
	known := map[string]bool{"lint": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	jobs := min(runtime.GOMAXPROCS(0), len(pkgs))
	perDiags := make([][]Diagnostic, len(pkgs))
	perSups := make([][]SuppressionRecord, len(pkgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				perDiags[i], perSups[i] = lintPackage(mod, pkgs[i], cfg, analyzers, fullSuite, known)
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res := &RunResult{HotPathRoots: HotPathRoots(mod)}
	for i := range pkgs {
		res.Diagnostics = append(res.Diagnostics, perDiags[i]...)
		res.Suppressions = append(res.Suppressions, perSups[i]...)
	}
	sortDiagnostics(res.Diagnostics)
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res, nil
}

// lintPackage runs every analyzer over one package: suppressions are
// collected, applied, and (on full-suite runs) checked for staleness.
func lintPackage(mod *Module, pkg *Package, cfg *Config, analyzers []*Analyzer, fullSuite bool, known map[string]bool) ([]Diagnostic, []SuppressionRecord) {
	sup := collectSuppressions(pkg)
	diags := append([]Diagnostic(nil), sup.malformed...)
	diags = append(diags, sprintDirectiveDiags(pkg)...)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Mod: mod, Cfg: cfg}
		a.Run(pass)
		for _, d := range pass.diags {
			if !sup.covers(d) {
				diags = append(diags, d)
			}
		}
	}
	if fullSuite {
		diags = append(diags, sup.stale(known)...)
	}
	return diags, sup.records()
}

// sortDiagnostics orders diagnostics by (file, line, col, analyzer,
// message) — the driver's one deterministic output order.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// sprintDirectiveDiags validates //sprint: directives: unknown directives
// and hotpath annotations outside a function's doc comment are silently
// inert, which is worse than an error.
func sprintDirectiveDiags(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		// Positions of comments that belong to some function's doc.
		docComments := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docComments[c] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "sprint:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				directive, _, _ := strings.Cut(text, " ")
				if directive != hotPathDirective {
					out = append(out, Diagnostic{
						Analyzer: "lint",
						File:     pkg.relFile(pos.Filename),
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  fmt.Sprintf("unknown //sprint: directive %q (known: //sprint:hotpath)", directive),
					})
					continue
				}
				if !docComments[c] {
					out = append(out, Diagnostic{
						Analyzer: "lint",
						File:     pkg.relFile(pos.Filename),
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "misplaced //sprint:hotpath: the annotation must be part of a function's doc comment",
					})
				}
			}
		}
	}
	return out
}
