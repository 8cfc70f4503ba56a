// Package obs is the repository's observability layer: a zero-dependency
// (standard library only) instrumentation toolkit shared by the simulator
// core, the profiling/calibration pipeline and cmd/sprintctl.
//
// It provides four pieces:
//
//   - Registry — a concurrency-safe metrics registry of counters, gauges
//     and windowed histograms (with quantiles), exposable as Prometheus
//     text format (WritePrometheus), JSON (WriteJSON) and expvar
//     (PublishExpvar). Default() is the process-wide registry every
//     internal package records into; tests pass their own NewRegistry().
//
//   - QueryTracer — a nil-safe hook interface receiving per-query
//     lifecycle events from the timeout-aware queue simulator
//     (internal/queuesim): arrival, service start, sprint start/stop,
//     timeout fired, budget exhausted, refill, departure. RingTracer is
//     the bounded in-memory sink, one mutex-guarded ring keeping the
//     last N events in arrival order; internal/trace adds JSONL export.
//
//   - Logger — a small leveled logger (Debug/Info/Warn/Error) so CLI
//     progress output composes with shell pipelines (results on stdout,
//     narration on stderr).
//
//   - DebugMux — an http.ServeMux serving /metrics (Prometheus text),
//     /debug/vars (expvar) and /debug/pprof, mounted by sprintctl's
//     -debug-addr flag so long profiling runs can be watched and
//     profiled live.
//
// Everything here is off the hot path by construction: simulators batch
// their metric updates to one flush per run, and every tracer hook site
// is guarded by a nil check (see BenchmarkSimulateOne for the enforced
// <5% disabled-overhead budget).
package obs
