GO ?= go

# tier1 is the merge gate: vet + project lint + build + race-enabled
# tests + the zero-allocation budget tests (which the race detector's
# instrumentation would skew, so they get a non-race run of their own) +
# the disabled-hook overhead check (BenchmarkSimulateOne vs
# BenchmarkSimulateOneTraced; baseline recorded in BENCH_obs.json).
.PHONY: tier1
tier1: vet lint lint-debt build race alloc-check bench-obs

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs sprintlint, the project-specific analyzers: the file-local
# suite (float equality, error hygiene, exported docs, goroutine
# cancellation (ctxleak), pooled-slot captures (poolescape), un-ended
# spans (spanleak)) plus the interprocedural pair (hotalloc over
# //sprint:hotpath closures, detflow determinism taint). Packages are
# analyzed on all cores; output is bit-identical at any GOMAXPROCS.
# Exit 1 means diagnostics; fix them or add a reasoned //lint:ignore
# (which becomes ledger debt — see lint-debt).
.PHONY: lint
lint:
	$(GO) run ./cmd/sprintlint

# lint-sarif emits the same run as SARIF 2.1.0 for CI's code-scanning
# upload, so findings land as inline annotations on the PR diff.
.PHONY: lint-sarif
lint-sarif:
	$(GO) run ./cmd/sprintlint -format sarif > sprintlint.sarif || true
	@test -s sprintlint.sarif

# lint-debt enforces the suppression-debt ledger: every //lint:ignore is
# counted against the per-analyzer ceilings in lint-baseline.json, and
# the build fails if any analyzer's count rises above its ceiling. Pay
# debt down (or consciously accept more) with:
#   go run ./cmd/sprintlint -debt -write-baseline
.PHONY: lint-debt
lint-debt:
	$(GO) run ./cmd/sprintlint -debt

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -shuffle=on randomises test (and subtest) execution order each run,
# so accidental inter-test state dependencies surface instead of hiding
# behind source order.
.PHONY: test
test:
	$(GO) test -shuffle=on ./...

# cover is the coverage ratchet: the engine-critical packages must not
# drop below the floors recorded here (a few points under measured, so
# refactors have headroom but regressions fail loudly). Raise a floor
# when its package's coverage rises; never lower one to make CI pass.
.PHONY: cover
cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -count=1 -cover $$1 | \
			sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage for $$1"; exit 1; fi; \
		echo "$$1: $$pct% (floor $$2%)"; \
		if awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p < f) }'; then \
			echo "cover: $$1 fell below its $$2% floor"; exit 1; fi; \
	}; \
	check ./internal/sweep 90; \
	check ./internal/queuesim 93; \
	check ./internal/queuesim/dispatch 90; \
	check ./internal/sim 95; \
	check ./internal/explore 95; \
	check ./internal/fault 90; \
	check ./internal/online 90; \
	check ./internal/obs 90; \
	check ./internal/trace 90; \
	check ./internal/lint 90; \
	check ./internal/server 80; \
	check ./internal/tier 90; \
	check ./internal/queuesim/analytic 95; \
	check ./internal/core 70; \
	check ./internal/colocate 82; \
	check ./internal/policies 90; \
	check ./internal/calib 87

# The experiments suite runs ~2 minutes without the race detector; the
# detector's 5-10x slowdown overruns go test's default 10m binary
# timeout, so raise it explicitly.
.PHONY: race
race:
	$(GO) test -race -timeout 30m ./...

# fuzz-smoke gives each fuzz target a short randomised shake — enough to
# catch parser and round-trip panics without holding up the gate.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseDist$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzLoadEvents$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzChromeTraceExport$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRateEstimator$$' -fuzztime 10s ./internal/online
	$(GO) test -run '^$$' -fuzz '^FuzzRunDeterminism$$' -fuzztime 10s ./internal/queuesim
	$(GO) test -run '^$$' -fuzz '^FuzzParseDiscipline$$' -fuzztime 10s ./internal/queuesim
	$(GO) test -run '^$$' -fuzz '^FuzzSuppressionParse$$' -fuzztime 10s ./internal/lint
	$(GO) test -run '^$$' -fuzz '^FuzzParseTierSpec$$' -fuzztime 10s ./internal/tier
	$(GO) test -run '^$$' -fuzz '^FuzzTierEscalation$$' -fuzztime 10s ./internal/tier
	$(GO) test -run '^$$' -fuzz '^FuzzLane$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzMinimizeSpeculation$$' -fuzztime 10s ./internal/explore

# bench-check runs the benchmark module's tests. cmd/sprintbench is its
# own Go module, so ./... above skips it; its pinned set-up digests at
# GOMAXPROCS 1 and 2 are the end-to-end bit-identity check over the
# pipeline and sprintd packages it imports.
.PHONY: bench-check
bench-check:
	cd cmd/sprintbench && $(GO) test -count=1 ./...

# soak runs the sprintd daemon's end-to-end robustness scenario under
# the race detector: concurrent tenants through chaos transports, a
# scripted outage and a scripted panic, an overload burst that must
# shed, a hot reload mid-traffic, a clean drain and a kill-and-restore
# with bit-identical ledger continuation. -count=1 defeats the cache —
# a soak that didn't run proves nothing.
.PHONY: soak
soak:
	$(GO) test -race -count=1 -run 'TestDaemonSoak' -v -timeout 5m ./internal/server/

# chaos replays every built-in fault-injection scenario against the
# graceful-degradation controller and fails if any scripted expectation
# (deepest level reached, level settled at) is violated.
.PHONY: chaos
chaos:
	$(GO) run ./cmd/sprintctl -quiet chaos -all

# bench-obs records the tracing overhead (nil vs ring vs span+ring; see
# BENCH_obs.json) and then enforces the regression floors in test form:
# ring tracing <=2x the nil-tracer run, span tracing <=15% over ring.
.PHONY: bench-obs
bench-obs:
	$(GO) test -run '^$$' -bench 'SimulateOne' -benchmem .
	MDSPRINT_BENCH_OBS=1 $(GO) test -count=1 -run 'TestObsOverheadBudget' .

# alloc-check runs the testing.AllocsPerRun budget tests that pin the
# simulator hot path at zero steady-state allocations, the testbed's
# per-run and record-reuse budgets, the profiler's condition replay,
# forest training's per-tree budget, the sweep memo's miss path and a
# memo-hit hybrid prediction.
# They self-skip under -race (instrumentation allocates), so the merge
# gate runs them here without it; -count=1 defeats the test cache.
.PHONY: alloc-check
alloc-check:
	$(GO) test -count=1 -run 'ZeroAllocs' ./internal/queuesim ./internal/sim ./internal/server ./internal/tier ./internal/testbed ./internal/profiler ./internal/forest ./internal/sweep ./internal/core

# bench-tier measures the staged RT estimator against always-full
# evaluation on the mixed stationary query stream (baseline recorded in
# BENCH_tier.json), then enforces the merge floors in test form: >=5x
# median decide speedup with a cheap-tier hit rate >=70%.
.PHONY: bench-tier
bench-tier:
	$(GO) test -run '^$$' -bench 'Decide' -benchmem -count 3 ./internal/tier/
	MDSPRINT_BENCH_TIER=1 $(GO) test -count=1 -run 'TestTierSpeedupBudget' ./internal/tier/

# bench-sim measures the simulator hot path, whose events are typed
# fields fired by its step function, against the test-only
# heap-and-closure reference simulator in queuesim's reference_test.go
# (the *Reference rows), and the calibration probe that drives it
# (BenchmarkSimulateRT). Baseline in BENCH_sim.json; the pooled RunReps
# must stay >=2x faster than the reference.
.PHONY: bench-sim
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSim(Run|RunInto|RunReference|RunReps|RunRepsReference|RunRepsSRPT)$$' -benchmem ./internal/queuesim/
	$(GO) test -run '^$$' -bench 'SimulateRT' -benchmem ./internal/calib/

# bench-sweep measures the policy-sweep engine: serial vs sharded
# throughput, the memoized path and the memo key over an Empirical
# service (baseline recorded in BENCH_sweep.json; sharded gains need >1
# CPU).
.PHONY: bench-sweep
bench-sweep:
	$(GO) test -run '^$$' -bench 'Sweep(Serial|Sharded|Cached)|Fingerprint' -benchmem ./internal/sweep/

# bench-serve measures the sprintd serving path: the in-process
# decision/observation hot path (which must stay at 0 allocs/op — see
# alloc-check), the full HTTP round trip, and the shed path (rejection
# must stay cheaper than service, or overload amplifies). Baseline in
# BENCH_serve.json.
.PHONY: bench-serve
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem ./internal/server/

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem .

# loc prints Go line counts per package directory and in total: non-test
# lines (no _test.go files), then test lines. testdata fixtures and the
# benchmark's build directory are left out of both. Simplicity changes
# report their per-package deltas from two runs of it.
.PHONY: loc
loc:
	@for d in $$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%-36s %7d %7d\n' "$$d" \
			"$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" \
			"$$(find "$$d" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l)"; \
	done
	@printf '%-36s %7d %7d\n' total \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l)" \
		"$$(find . -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
