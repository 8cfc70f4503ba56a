// Package detflow is the deterministic root of the taint fixture. Its
// entry points lean on the impure subpackage, and the analyzer must
// report each source there with the chain back to the entry point. The
// package's own sources (local.go, process.go) are reported in place,
// with a fix-it hint and no chain.
package detflow

import (
	"fixture/impure"
	"fixture/internal/obs"
)

// Plan derives one deterministic plan through impure helpers.
func Plan() float64 {
	impure.Spawn()
	if impure.Env() == "" {
		return 0
	}
	if len(impure.Keys(map[string]int{"a": 1})) == 0 {
		return 0
	}
	if len(impure.SortedKeys(map[string]int{"a": 1})) == 0 {
		return 0
	}
	if impure.Clock().IsZero() {
		return 0
	}
	return impure.Stamp() + impure.Jitter()
}

// Timed measures a plan through the injected clock. The built-in
// barriers stop at obs.ClockOr and the Clock implementations; obs.Elapsed
// is not one of them.
func Timed(c obs.Clock) float64 {
	return obs.Elapsed(obs.ClockOr(c).Now())
}
