// Package obs mirrors the real module's injected clock at the same
// module-relative path, so detflow's built-in barriers name its nodes.
package obs

import "time"

// Clock abstracts wall-clock reads.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock is the real wall clock.
var SystemClock Clock = systemClock{}

// ClockOr returns c, or SystemClock when c is nil.
func ClockOr(c Clock) Clock {
	if c == nil {
		return SystemClock
	}
	return c
}

// ManualClock is a settable Clock.
type ManualClock struct {
	t time.Time
}

// Now returns the clock's frozen time.
func (c *ManualClock) Now() time.Time { return c.t }

// Elapsed is not a barrier: it reads the wall clock outside the injected
// clock, so reaching it is a finding.
func Elapsed(start time.Time) float64 {
	return time.Since(start).Seconds()
}
