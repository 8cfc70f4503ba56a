package lint

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunModuleParallelDeterministic is the bit-identical-output
// contract: the same module analyzed on one worker or on eight yields
// the same RunResult, down to the rendered SARIF bytes.
func TestRunModuleParallelDeterministic(t *testing.T) {
	dir := filepath.Join("testdata", "src", "hotalloc")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base *RunResult
	var baseSARIF []byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := RunModule(dir, RunOpts{})
		if err != nil {
			t.Fatalf("RunModule(GOMAXPROCS=%d): %v", procs, err)
		}
		sarif, err := SARIF(res.Diagnostics)
		if err != nil {
			t.Fatalf("SARIF(GOMAXPROCS=%d): %v", procs, err)
		}
		if base == nil {
			base, baseSARIF = res, sarif
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("RunResult at GOMAXPROCS=%d differs from GOMAXPROCS=1:\n%+v\nvs\n%+v", procs, res, base)
		}
		if !bytes.Equal(sarif, baseSARIF) {
			t.Errorf("SARIF bytes at GOMAXPROCS=%d differ from GOMAXPROCS=1", procs)
		}
	}
	if len(base.Diagnostics) == 0 {
		t.Fatal("hotalloc fixture produced no diagnostics")
	}
	if want := []string{"fixture.Run"}; !reflect.DeepEqual(base.HotPathRoots, want) {
		t.Errorf("HotPathRoots = %v, want %v", base.HotPathRoots, want)
	}
}

// TestRunModuleStaleOnlyOnFullSuite: a restricted run cannot tell a
// stale suppression from one whose analyzer did not run, so staleness
// must only be reported by the full suite.
func TestRunModuleStaleOnlyOnFullSuite(t *testing.T) {
	dir := filepath.Join("testdata", "src", "stalesuppress")
	full, err := RunModule(dir, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var stale int
	for _, d := range full.Diagnostics {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "stale suppression") {
			stale++
		}
	}
	if stale != 1 {
		t.Errorf("full suite reported %d stale suppressions, want 1", stale)
	}

	restricted, err := RunModule(dir, RunOpts{Only: []string{"floateq"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range restricted.Diagnostics {
		if strings.Contains(d.Message, "stale suppression") {
			t.Errorf("restricted run reported staleness: %s", d)
		}
	}
	// The inventory itself is reported either way: debt tracking does
	// not depend on which analyzers ran.
	if len(restricted.Suppressions) != len(full.Suppressions) {
		t.Errorf("suppression inventory differs: restricted %d, full %d",
			len(restricted.Suppressions), len(full.Suppressions))
	}
}

// TestRunModuleUnknownAnalyzer pins the error path.
func TestRunModuleUnknownAnalyzer(t *testing.T) {
	if _, err := RunModule(filepath.Join("testdata", "src", "clean"), RunOpts{Only: []string{"nope"}}); err == nil {
		t.Fatal("unknown analyzer did not error")
	}
}

// TestDetflowAllowBarrier: the built-in barriers stop detflow at the
// injected clock. The detflow fixture lays out a miniature obs package
// at internal/obs, so the barrier globs written for the real module
// name its nodes: ClockOr and the Clock implementations read the wall
// clock but are neither reported nor traversed, while obs.Elapsed, not
// a barrier, is reported like any other reached source.
func TestDetflowAllowBarrier(t *testing.T) {
	var sawElapsed, sawStamp bool
	for _, d := range runFixture(t, "detflow", "detflow") {
		switch {
		case strings.Contains(d.Message, "internal/obs.Elapsed"):
			sawElapsed = true
		case strings.Contains(d.Message, "impure.Stamp"):
			sawStamp = true
		case strings.HasPrefix(d.File, "internal/obs/"):
			t.Errorf("barrier node reported: %s", d)
		}
	}
	if !sawElapsed {
		t.Error("a non-barrier node in internal/obs was not reported")
	}
	if !sawStamp {
		t.Error("the barriers silenced an unrelated source (impure.Stamp)")
	}
}

// TestRunModuleWallClockBudget is the perf guard for the parallel
// driver: a full-suite run over the whole real module — load,
// type-check, call graph, both interprocedural closures, every analyzer
// — must land well inside an interactive budget. The bound is loose
// (CI machines vary) but catches an accidental quadratic blowup in the
// graph or fact propagation.
func TestRunModuleWallClockBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	start := time.Now()
	res, err := RunModule(filepath.Join("..", ".."), RunOpts{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-module lint: %d diagnostics, %d suppressions in %v",
		len(res.Diagnostics), len(res.Suppressions), elapsed)
	const budget = 60 * time.Second
	if elapsed > budget {
		t.Errorf("full-module lint took %v, budget %v", elapsed, budget)
	}
}
