package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt files")

// fixtureConfig treats each single-package fixture module as both a
// deterministic package and a public-doc package, with empty allowlists,
// so every analyzer is armed.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPackages: []string{"."},
		DocPackages:           []string{"."},
		CtxPackages:           []string{"."},
		PooledTypes:           []string{"query"},
	}
}

// fixtureAnalyzers pins which analyzers may fire in each fixture. The
// golden files record the exact diagnostics; this map additionally fails
// the test if an unrelated analyzer starts firing (or an expected one
// stops), guarding against a blind `-update` regeneration.
var fixtureAnalyzers = map[string][]string{
	"nondeterm":   {"nondeterm"},
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
			diags, err := Run(dir, fixtureConfig(), nil)
			if err != nil {
				t.Fatalf("Run(%s): %v", dir, err)
			}
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
	dir := filepath.Join("testdata", "src", "nondeterm")
	diags, err := Run(dir, fixtureConfig(), []string{"floateq"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("floateq-only run over nondeterm fixture found %d diagnostics: %v", len(diags), diags)
	}
	if _, err := Run(dir, fixtureConfig(), []string{"nope"}); err == nil {
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
	diags, err := Run(filepath.Join("..", ".."), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestQueuesimUsesInjectedClock verifies — with the nondeterm analyzer
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
	found := false
	for _, pkg := range pkgs {
		if pkg.Rel != "internal/queuesim" {
			continue
		}
		found = true
		pass := &Pass{Analyzer: NonDeterm, Pkg: pkg, Cfg: DefaultConfig()}
		NonDeterm.Run(pass)
		for _, d := range pass.diags {
			t.Errorf("queuesim nondeterminism (unsuppressable): %s", d)
		}
	}
	if !found {
		t.Fatal("internal/queuesim not found in module load")
	}
}
