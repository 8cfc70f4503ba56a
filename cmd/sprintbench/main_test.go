package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

// smoke runs one workload at smoke scale and returns its parsed result.
// A traced run measures longer, so that starting each serve round stays
// a small share of the round and bench.glue_frac measures missing spans.
func smoke(t *testing.T, workload string, trace string) Result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	seconds := "0.25"
	if trace == "1" {
		seconds = "0.5"
	}
	args := []string{"-workload", workload, "-scale", "smoke", "-seconds", seconds, "-trace", trace, "-workdir", t.TempDir()}
	if code := cmdRun(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %s exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s -trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// TestEveryMetricEmitted holds every workload to BENCHMARK.json: an
// untraced run prints exactly the end-to-end metrics and a traced run
// exactly the per-layer ones, each with its declared unit. A traced run
// also leaves at most 2% of an op's time outside every layer span.
func TestEveryMetricEmitted(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, sprintbench runs %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		for trace, want := range map[string]map[string]string{"0": e2e, "1": layer} {
			res := smoke(t, w.Name, trace)
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok {
					t.Errorf("%s -trace %s: no %s", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s -trace %s: %s in %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s -trace %s: %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if glue := res.Metrics["bench.glue_frac"].Value; trace == "1" && glue > 0.02 {
				t.Errorf("%s: bench.glue_frac %.4f > 0.02: a layer call is outside every span", w.Name, glue)
			}
		}
	}
}

// digestsEnv makes the test binary print the set-up digests and exit.
const digestsEnv = "SPRINTBENCH_PRINT_DIGESTS"

// TestSetupDigestsDeterministic checks that the set-up digests match
// their pins at GOMAXPROCS 1 and 2, twice each. Every set-up runs in a
// fresh process, so none of its simulations is a memo hit left in the
// process-wide sweep engine by an earlier one. The worker pools are
// sized by the CPU count, so at GOMAXPROCS=1 their goroutines take turns
// and at 2 they run in parallel: the digests must not depend on the
// order in which simulations finish.
func TestSetupDigestsDeterministic(t *testing.T) {
	if os.Getenv(digestsEnv) == "1" {
		printSetupDigests(t)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []string{"1", "2", "1", "2"} {
		cmd := exec.Command(exe, "-test.run=^TestSetupDigestsDeterministic$")
		cmd.Env = append(os.Environ(), digestsEnv+"=1", "GOMAXPROCS="+procs)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
		}
		got := map[string]string{}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "digest" {
				got[f[1]] = f[2]
			}
		}
		for _, key := range []string{"pipeline/smoke", "serve-load", "serve-retune"} {
			if got[key] != pinnedDigests[key] {
				t.Errorf("GOMAXPROCS=%s: %s digest %q, pinned %q", procs, key, got[key], pinnedDigests[key])
			}
		}
	}
}

// printSetupDigests runs the smoke pipeline's and each serve workload's
// set-up and prints their digests.
func printSetupDigests(t *testing.T) {
	ctx := context.Background()
	_, digest, _, err := pipelineSetup(ctx, pipelineScales["smoke"], newSimProbe())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("digest pipeline/smoke %016x\n", digest)
	echo, err := startEchoProbe(len(tenantNames))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := echo.stop(); err != nil {
			t.Error(err)
		}
	}()
	for _, spec := range []serveSpec{serveLoad, serveRetune} {
		st, _, digest, err := serveSetup(ctx, config{seed: 7}, &spec, t.TempDir(), echo.hostProbe(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.stop(); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("digest %s %016x\n", spec.name, digest)
	}
}

// TestDecomposedMatchesTrainHybrid checks that the model the benchmark
// assembles layer by layer is the one core.TrainHybridCtx trains, and
// that the check notices a different model.
func TestDecomposedMatchesTrainHybrid(t *testing.T) {
	ctx := context.Background()
	sc := pipelineScales["smoke"]
	out, err := runIteration(ctx, sc, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecomposed(ctx, sc, 42, out); err != nil {
		t.Fatal(err)
	}
	if err := checkDecomposed(ctx, sc, 43, out); err == nil {
		t.Fatal("a model trained with another seed passed as the same model")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "bench.iteration", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "calib.calibrate", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "explore.minimize", StartNS: 30, EndNS: 90},
		{ID: 4, Parent: 3, Name: "core.predict", StartNS: 50, EndNS: 95}, // runs past its parent
	}
	got := selfByLayer(spans)
	want := map[string]float64{"bench": 20e-9, "calib": 30e-9, "explore": 20e-9, "core": 45e-9}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bench, `{"workloads": [{"name": "w"}], "end_to_end": [
		{"name": "same", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "slower", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "faster", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1}], "per_layer": []}`)
	runs := func(path string, rows ...[4]float64) {
		var b strings.Builder
		for _, v := range rows {
			line, _ := json.Marshal(record{Workload: "w", Result: Result{Metrics: map[string]Metric{
				"same": {Value: v[0]}, "slower": {Value: v[1]}, "faster": {Value: v[2]}, "noisy": {Value: v[3]},
			}}})
			b.Write(append(line, '\n'))
		}
		write(path, b.String())
	}
	runs(filepath.Join(dir, "a.jsonl"), [4]float64{10, 10, 100, 10}, [4]float64{10.1, 10.1, 101, 20}, [4]float64{9.9, 9.9, 99, 5})
	runs(filepath.Join(dir, "b.jsonl"), [4]float64{10, 12, 120, 10}, [4]float64{10.1, 12.1, 121, 20}, [4]float64{9.9, 11.9, 119, 5})
	var stdout, stderr bytes.Buffer
	code := cmdCompare([]string{"-bench", bench, filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit %d, want 1 (a metric is worse)\n%s%s", code, stdout.String(), stderr.String())
	}
	for metric, want := range map[string]string{"same": "within", "slower": "worse", "faster": "better", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
				found = true
				if f[len(f)-1] != want {
					t.Errorf("%s: verdict %s, want %s", metric, f[len(f)-1], want)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s:\n%s", metric, stdout.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pipeline", "-trace", "2"},
		{"-workload", "pipeline", "-seconds", "0"},
		{"-workload", "pipeline", "-scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cmdRun(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, stdout.String())
		}
	}
}
