// Package impure hosts one of every detflow source. On its own it lints
// clean (it is not a deterministic package); reached from the det
// root's entry points, every source below must surface.
package impure

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Stamp measures elapsed wall time.
func Stamp() float64 {
	start := time.Now()
	return time.Since(start).Seconds()
}

// Jitter draws from the global, unseeded source.
func Jitter() float64 {
	return rand.Float64()
}

// Env reads process state.
func Env() string {
	return os.Getenv("FIXTURE_MODE")
}

// Keys collects map keys without sorting: iteration order leaks.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys is the benign collect-then-sort idiom; it must stay quiet.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Spawn races a goroutine against the caller.
func Spawn() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

// Clock reads the wall clock outside the injected obs.Clock: unlike the
// barrier nodes in internal/obs, it is reported even though its name
// says clock.
func Clock() time.Time {
	return time.Now()
}
