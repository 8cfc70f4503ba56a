//go:build race

package profiler

// raceEnabled gates allocation-budget tests under -race; see
// race_off_test.go.
const raceEnabled = true
