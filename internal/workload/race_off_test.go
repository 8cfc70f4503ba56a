//go:build !race

package workload

// raceEnabled shortens the differential tests under the race detector,
// which slows their single-goroutine arithmetic about fivefold and has
// nothing in it to find.
const raceEnabled = false
