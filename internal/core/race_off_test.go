//go:build !race

package core

// raceEnabled gates allocation-budget tests: the race detector
// instruments allocations, so AllocsPerRun assertions only hold in
// non-race builds.
const raceEnabled = false
