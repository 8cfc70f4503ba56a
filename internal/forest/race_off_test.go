//go:build !race

package forest

// raceEnabled gates allocation-budget tests: the race detector
// instruments allocations, so AllocsPerRun assertions only hold in
// non-race builds.
const raceEnabled = false
