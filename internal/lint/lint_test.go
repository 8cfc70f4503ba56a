package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt files")

// fixtureConfig treats each fixture module's root package as a
// deterministic and a concurrency package, with empty allowlists, so
// every analyzer is armed (exporteddoc always checks the root package).
func fixtureConfig() *Config {
	return &Config{
		DeterministicPackages: []string{"."},
		CtxPackages:           []string{"."},
		PooledTypes:           []string{"query"},
	}
}

// runFixture lints one fixture module under fixtureConfig.
func runFixture(t *testing.T, name string, only ...string) []Diagnostic {
	t.Helper()
	res, err := RunModule(filepath.Join("testdata", "src", name), RunOpts{Config: fixtureConfig(), Only: only})
	if err != nil {
		t.Fatalf("RunModule(%s): %v", name, err)
	}
	return res.Diagnostics
}

// fixtureAnalyzers pins which analyzers may fire in each fixture. The
// golden files record the exact diagnostics; this map additionally fails
// the test if an unrelated analyzer starts firing (or an expected one
// stops), guarding against a blind `-update` regeneration.
var fixtureAnalyzers = map[string][]string{
	"floateq":     {"floateq"},
	"errdrop":     {"errdrop"},
	"exporteddoc": {"exporteddoc"},
	"ctxleak":     {"ctxleak"},
	"poolescape":  {"poolescape"},
	"spanleak":    {"spanleak"},
	"clean":       {},
	"suppressed":  {},
	"badsuppress": {"lint", "floateq"},
	"hotalloc":    {"hotalloc"},
	"detflow":     {"detflow"},

	// stalesuppress surfaces only driver-level "lint" diagnostics: the one
	// floateq hit is absorbed by its (used) suppression, everything else
	// is stale/malformed directives.
	"stalesuppress": {"lint"},
}

func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			allowed, ok := fixtureAnalyzers[name]
			if !ok {
				t.Fatalf("fixture %s has no fixtureAnalyzers entry", name)
			}
			dir := filepath.Join("testdata", "src", name)
			diags := runFixture(t, name)
			fired := map[string]bool{}
			var sb strings.Builder
			for _, d := range diags {
				fired[d.Analyzer] = true
				found := false
				for _, a := range allowed {
					if d.Analyzer == a {
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected analyzer fired: %s", d)
				}
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			for _, a := range allowed {
				if !fired[a] {
					t.Errorf("analyzer %s did not fire on fixture %s", a, name)
				}
			}
			expectPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(expectPath, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(expectPath)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./internal/lint -run TestFixtures -update)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("diagnostics differ from %s\ngot:\n%swant:\n%s", expectPath, got, want)
			}
		})
	}
	for name := range fixtureAnalyzers {
		if !seen[name] {
			t.Errorf("fixtureAnalyzers lists %s but testdata/src/%s does not exist", name, name)
		}
	}
}

func TestRunOnlyFilters(t *testing.T) {
	if diags := runFixture(t, "detflow", "floateq"); len(diags) != 0 {
		t.Fatalf("floateq-only run over detflow fixture found %d diagnostics: %v", len(diags), diags)
	}
	if len(runFixture(t, "detflow", "detflow")) == 0 {
		t.Fatal("detflow-only run over detflow fixture found nothing")
	}
	dir := filepath.Join("testdata", "src", "detflow")
	if _, err := RunModule(dir, RunOpts{Config: fixtureConfig(), Only: []string{"nope"}}); err == nil {
		t.Fatal("unknown analyzer name did not error")
	}
}

// TestModuleClean is the zero-diagnostics acceptance gate: the real
// module, under the default config, must lint clean. Every intentional
// violation in the tree carries a reasoned //lint:ignore.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	res, err := RunModule(filepath.Join("..", ".."), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestQueuesimUsesInjectedClock verifies — with the detflow analyzer
// itself, before suppressions are applied — that the queue simulator no
// longer reads the wall clock or global RNG directly.
func TestQueuesimUsesInjectedClock(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Pkgs: pkgs}
	found := false
	for _, pkg := range pkgs {
		if pkg.Rel != "internal/queuesim" {
			continue
		}
		found = true
		pass := &Pass{Analyzer: DetFlow, Pkg: pkg, Mod: mod, Cfg: DefaultConfig()}
		DetFlow.Run(pass)
		for _, d := range pass.diags {
			t.Errorf("queuesim nondeterminism (unsuppressable): %s", d)
		}
	}
	if !found {
		t.Fatal("internal/queuesim not found in module load")
	}
}
