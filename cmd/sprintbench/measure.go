package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdsprint/internal/obs"
	"mdsprint/internal/stats"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEndMetrics are what an untraced run reports. For the pipeline an
// op is one iteration; for the serve workloads it is one HTTP request.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.tail", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are what a traced run reports. Every workload reports
// all of them; a layer the workload does not run reads 0.
var perLayerMetrics = []metricDef{
	{"profiler.self_s", "s/op"},
	{"profiler.runs", "count/op"},
	{"calib.self_s", "s/op"},
	{"calib.sim_evals", "count/op"},
	{"calib.converged_frac", "ratio"},
	{"calib.degraded", "count/op"},
	{"forest.self_s", "s/op"},
	{"forest.trees", "count/op"},
	{"core.predict_s", "s/op"},
	{"core.predictions", "count/op"},
	{"core.predict_us_per_scenario", "us"},
	{"sweep.tasks", "count/op"},
	{"sweep.evals", "count/op"},
	{"sweep.hit_rate", "ratio"},
	{"sweep.evictions", "count/op"},
	{"queuesim.busy_s", "s/op"},
	{"queuesim.runs", "count/op"},
	{"queuesim.events", "count/op"},
	{"queuesim.ns_per_event", "ns"},
	{"explore.self_s", "s/op"},
	{"explore.evals", "count/op"},
	{"online.self_s", "s/op"},
	{"online.retunes", "count/op"},
	{"online.demotions", "count/op"},
	{"online.select_us.mean", "us"},
	{"online.search_us.mean", "us"},
	{"tier.answers", "count/op"},
	{"tier.cheap_frac", "ratio"},
	{"tier.short", "count/op"},
	{"tier.full", "count/op"},
	{"server.handler_us.p50", "us"},
	{"server.handler_us.p99", "us"},
	{"server.wire_us.mean", "us"},
	{"server.shed", "count/op"},
	{"client.self_us.p50", "us"},
	{"client.self_us.p99", "us"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.gc_cycles", "count/op"},
	{"runtime.cpu_us_per_op", "us"},
	{"bench.glue_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.host_factor", "ratio"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

// newResult starts a result. A traced run's starts with every per-layer
// metric at 0, so layers a workload does not run still report.
func newResult(traced bool) *Result {
	r := &Result{Correct: true, Metrics: map[string]Metric{}}
	if traced {
		for _, d := range perLayerMetrics {
			r.set(d.name, 0)
		}
	}
	return r
}

// set records a declared metric; an undeclared name is a bug.
func (r *Result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("sprintbench: undeclared metric " + name)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fail marks the run's outputs incorrect and says why.
func (r *Result) fail(log io.Writer, format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(log, "sprintbench: incorrect: "+format+"\n", args...)
}

// usage is a snapshot of the process counters that per-op metrics are
// deltas of.
type usage struct {
	cpu     time.Duration
	bytes   uint64 // runtime.MemStats.TotalAlloc
	mallocs uint64
	gcs     uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("sprintbench: getrusage(RUSAGE_SELF) with a valid pointer failed: " + err.Error())
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

func (u usage) add(o usage) usage {
	return usage{cpu: u.cpu + o.cpu, bytes: u.bytes + o.bytes, mallocs: u.mallocs + o.mallocs, gcs: u.gcs + o.gcs}
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, bytes: u.bytes - o.bytes, mallocs: u.mallocs - o.mallocs, gcs: u.gcs - o.gcs}
}

// endToEnd is what a workload measured for the end-to-end metrics:
// times in seconds as measured, and the host probe factors that turn
// them into reference-host time (see hostProbe).
type endToEnd struct {
	setups      []float64 // per set-up repetition
	setupFactor float64
	p50, tail   float64 // op latency
	opsPerSec   float64
	factor      float64
	ops         int
	used        usage // process usage of the measured phase, probes excluded
}

func (r *Result) setEndToEnd(log io.Writer, e endToEnd) error {
	setup := stats.Median(e.setups)
	fmt.Fprintf(log, "sprintbench: host probe factor %.4f (set-up %.4f); as measured: setup %.6g s, p50 %.6g s, tail %.6g s, %.6g ops/s\n",
		e.factor, e.setupFactor, setup, e.p50, e.tail, e.opsPerSec)
	r.set("setup_s", setup*e.setupFactor)
	r.set("ops_per_s", e.opsPerSec/e.factor)
	r.set("latency_ms.p50", 1e3*e.p50*e.factor)
	r.set("latency_ms.tail", 1e3*e.tail*e.factor)
	r.set("alloc_kb_per_op", float64(e.used.bytes)/1024/float64(e.ops))
	rss, err := peakRSSMiB()
	r.set("peak_rss_mb", rss)
	return err
}

// setRuntime records the runtime.* per-layer metrics of used over ops
// operations.
func (r *Result) setRuntime(used usage, ops int) {
	n := float64(ops)
	r.set("runtime.allocs_per_op", float64(used.mallocs)/n)
	r.set("runtime.gc_cycles", float64(used.gcs)/n)
	r.set("runtime.cpu_us_per_op", 1e6*used.cpu.Seconds()/n)
}

// setCounters records the per-layer metrics that are deltas of the
// program's own registry counters over ops operations.
func (r *Result) setCounters(d counters, ops int) {
	n := float64(ops)
	perOp := func(metric, counter string) { r.set(metric, d[counter]/n) }
	perOp("profiler.runs", "mdsprint_profiler_runs_total")
	perOp("calib.sim_evals", "mdsprint_calib_sim_evals_total")
	r.set("calib.converged_frac", ratio(d["mdsprint_calib_converged_total"], d["mdsprint_calib_records_total"]))
	perOp("calib.degraded", "mdsprint_calib_degraded_total")
	perOp("forest.trees", "mdsprint_forest_trees_trained_total")
	perOp("core.predictions", "mdsprint_model_predictions_total")
	perOp("sweep.tasks", "mdsprint_sweep_tasks_total")
	perOp("sweep.evals", "mdsprint_sweep_evals_total")
	hits := d["mdsprint_sweep_cache_hits_total"]
	r.set("sweep.hit_rate", ratio(hits, hits+d["mdsprint_sweep_cache_misses_total"]))
	perOp("sweep.evictions", "mdsprint_sweep_cache_evictions_total")
	busy := d["mdsprint_sim_run_seconds_sum"]
	r.set("queuesim.busy_s", busy/n)
	perOp("queuesim.runs", "mdsprint_sim_runs_total")
	perOp("queuesim.events", "mdsprint_sim_events_total")
	r.set("queuesim.ns_per_event", ratio(1e9*busy, d["mdsprint_sim_events_total"]))
	perOp("online.retunes", "mdsprint_online_retunes_total")
	perOp("online.demotions", "mdsprint_online_demotions_total")
	r.set("online.select_us.mean", 1e6*ratio(d["mdsprint_decision_select_seconds_sum"], d["mdsprint_decision_select_seconds_count"]))
	r.set("online.search_us.mean", 1e6*ratio(d["mdsprint_decision_search_seconds_sum"], d["mdsprint_decision_search_seconds_count"]))
	answers := d["mdsprint_tier_answers_total"]
	r.set("tier.answers", answers/n)
	r.set("tier.cheap_frac", ratio(d["mdsprint_tier_analytic_total"]+d["mdsprint_tier_cache_total"], answers))
	perOp("tier.short", "mdsprint_tier_short_total")
	perOp("tier.full", "mdsprint_tier_full_total")
	r.set("server.shed", (d["mdsprint_serve_shed_inflight_total"]+d["mdsprint_serve_shed_tenant_total"])/n)
}

// ratio is a/b, or 0 when b, a count or a sum of times, is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// counters are values scraped from a registry's Prometheus text
// exposition: counters and gauges by name, histograms as name_sum and
// name_count (their windowed quantiles are skipped).
type counters map[string]float64

// parseProm reads a Prometheus text exposition.
func parseProm(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// scrape reads an in-process registry through its Prometheus exposition,
// the same text sprintd serves on /metrics.
func scrape(reg *obs.Registry) (counters, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("exporting metrics: %w", err)
	}
	return parseProm(&buf)
}

// add returns c plus o, name by name.
func (c counters) add(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// sub returns c minus before, name by name.
func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}
