//go:build race

package workload

// raceEnabled shortens the differential tests under -race; see
// race_off_test.go.
const raceEnabled = true
