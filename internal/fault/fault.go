// Package fault provides deterministic, seeded fault injection and the
// resilience primitives the graceful-degradation control plane is built
// on. The injectors corrupt the inputs the online control plane depends
// on — arrival-timestamp streams feeding online.RateEstimator
// (ArrivalFaults) and HTTP round trips to sprintd (RoundTripper) — while
// the Breaker and the scripted Scenario registry
// supply the recovery side: circuit breaking around expensive model
// calls and reproducible end-to-end chaos scripts.
//
// Everything in this package is a deterministic function of its
// configured seed: two injectors built from the same config produce
// bit-identical fault schedules, independent of goroutine scheduling
// (per-item decisions are keyed by item index, not by execution order).
// All injectors export mdsprint_fault_* metrics through internal/obs so
// chaos runs are observable from sprintctl's debug endpoints.
package fault

import "mdsprint/internal/dist"

// mix64 is a splitmix64-style finalizer used to derive independent RNG
// seeds from (seed, index) pairs. Deriving a fresh RNG per item keeps
// fault schedules a function of item identity alone.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// itemRNG returns the deterministic RNG for item i of the stream
// identified by seed and channel. Distinct channels decorrelate the
// fault streams of injectors sharing one scenario seed.
func itemRNG(seed uint64, channel uint64, i uint64) *dist.RNG {
	return dist.NewRNG(mix64(seed^mix64(channel)) ^ mix64(i+0x9e3779b97f4a7c15))
}

// Channel tags for itemRNG; each injector draws from its own stream.
// Values 1 and 3 belonged to retired injectors; the others keep their
// numbers so every existing fault schedule replays unchanged.
const (
	chanArrivals uint64 = 2
	chanHTTP     uint64 = 4
	chanChaos    uint64 = 5
)
