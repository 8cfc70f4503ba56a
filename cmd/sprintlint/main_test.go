package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/lint"
)

func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

func TestRunCleanFixture(t *testing.T) {
	var out strings.Builder
	// The fixture config differs from the default, but the clean fixture
	// is clean under any config.
	if code := run([]string{"-C", fixture("clean")}, &out); code != 0 {
		t.Fatalf("exit %d on clean fixture; output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean fixture produced output:\n%s", out.String())
	}
}

func TestRunReportsDiagnostics(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-C", fixture("errdrop")}, &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[errdrop]") {
		t.Fatalf("missing errdrop diagnostic:\n%s", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-C", fixture("errdrop"), "-format", "json"}, &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 || diags[0].Analyzer != "errdrop" {
		t.Fatalf("unexpected JSON diagnostics: %+v", diags)
	}

	out.Reset()
	if code := run([]string{"-C", fixture("clean"), "-format", "json"}, &out); code != 0 {
		t.Fatalf("exit %d on clean fixture", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean JSON output %q, want []", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("exit %d on -list", code)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Fatalf("-list missing analyzer %s:\n%s", a.Name, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-C", "/nonexistent-sprintlint-dir"}, &out); code != 2 {
		t.Fatalf("exit %d on missing dir, want 2", code)
	}
	if code := run([]string{"-only", "nope"}, &out); code != 2 {
		t.Fatalf("exit %d on unknown analyzer, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}, &out); code != 2 {
		t.Fatalf("exit %d on bad flag, want 2", code)
	}
}
