package lint

// Config is the project policy the analyzers enforce. Paths are
// module-relative ("." names the root package) so the same config works
// for the real module and for test fixtures.
type Config struct {
	// DeterministicPackages must be reproducible functions of their
	// inputs: detflow forbids wall-clock reads, global math/rand use,
	// environment reads and map iteration inside them and in everything
	// they call.
	DeterministicPackages []string
	// FloatEqAllow lists functions (as "relpkg.Func" or
	// "relpkg.Type.Method") whose bodies may compare floats exactly —
	// the epsilon helpers themselves.
	FloatEqAllow []string
	// ErrDropAllow lists callees whose error results may be discarded,
	// matched against the callee's full name with an optional trailing
	// '*' glob (e.g. "fmt.Fprint*", "(*strings.Builder).Write*").
	ErrDropAllow []string
	// CtxPackages lists concurrency-bearing packages where ctxleak
	// forbids spawning goroutines from functions that take no
	// context.Context (callers would have no cancellation path).
	CtxPackages []string
	// PooledTypes lists slab-pooled types (as "relpkg.TypeName", bare
	// "TypeName" for the root package) whose values must not be captured
	// by closures: pooled slots are recycled, so a captured reference
	// goes stale when the slot is re-tenanted. poolescape flags function
	// literals with such free variables inside the declaring package.
	PooledTypes []string
}

// DefaultConfig returns the policy for this repository.
func DefaultConfig() *Config {
	return &Config{
		// The model-side packages the paper's calibration and annealing
		// replay: identical inputs must yield identical outputs.
		DeterministicPackages: []string{
			"internal/queuesim",
			"internal/queuesim/analytic",
			"internal/queuesim/dispatch",
			"internal/sim",
			"internal/forest",
			"internal/dist",
			"internal/calib",
			"internal/explore",
			"internal/sweep",
			// Chaos replays are fingerprinted: same seed, same timeline.
			"internal/fault",
			"internal/online",
			// Tier decisions are replayable provenance: same task, same
			// engine state, same ladder answer.
			"internal/tier",
		},
		FloatEqAllow: []string{
			"internal/stats.ApproxEqual",
			"internal/stats.ApproxZero",
		},
		ErrDropAllow: []string{
			// Console writes: a failed stdout/stderr print has no
			// recovery path in a CLI.
			"fmt.Print*",
			"fmt.Fprint*",
			// In-memory writers never fail.
			"(*strings.Builder).Write*",
			"(*bytes.Buffer).Write*",
		},
		// The packages that fan work out to goroutines: anything they
		// spawn must be cancelable by the caller.
		CtxPackages: []string{
			"internal/sweep",
			"internal/calib",
			"internal/explore",
			"internal/colocate",
			"internal/profiler",
			"internal/queuesim",
			"internal/online",
			"internal/fault",
			// The serving daemon: tenant workers and the snapshot loop
			// all hang off the server context. (Not a deterministic
			// package — sprintd lives on the wall clock.)
			"internal/server",
		},
		// The allocation-free hot path's slab-resident types: queries in
		// the queue simulator's pool.
		PooledTypes: []string{
			"internal/queuesim.query",
		},
	}
}
