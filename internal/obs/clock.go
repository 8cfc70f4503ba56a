package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so deterministic packages never call
// time.Now directly (the detflow analyzer forbids it there). The queue
// simulator's event loop runs on virtual time; the only real-time reads
// it needs are for run-duration metrics, and those flow through an
// injectable Clock so measured regions are reproducible under test.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// systemClock reads the real wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock is the real wall clock, the default everywhere a Clock is
// injectable.
var SystemClock Clock = systemClock{}

// ClockOr returns c, or SystemClock when c is nil — the standard
// defaulting idiom for injectable clocks.
func ClockOr(c Clock) Clock {
	if c == nil {
		return SystemClock
	}
	return c
}

// ManualClock is a settable Clock for tests: time stands still until
// Advance or Set moves it. It is safe for concurrent use.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a manual clock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current frozen time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// Set jumps the clock to t.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}
