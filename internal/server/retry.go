package server

import (
	"context"
	"time"

	"mdsprint/internal/dist"
)

// retryPlan is the client's retry discipline: a bounded number of
// re-attempts with exponential backoff and ±50% jitter, seeded at plan
// time so one client's backoff schedule is reproducible.
type retryPlan struct {
	// maxRetries is how many re-attempts follow the first try; 0 means
	// a single attempt with no retry.
	maxRetries int
	// backoff is the first retry's base delay, doubled per attempt and
	// jittered ±50% so retry storms from many clients decorrelate.
	backoff time.Duration
	// seed drives the jitter RNG.
	seed uint64
	// onRetry, when set, observes each re-attempt (1-based) before its
	// backoff wait — the metrics hook.
	onRetry func(attempt int)
}

// outcome is one attempt's verdict: its error (nil means success and
// ends the plan), whether another attempt could help, and a lower
// bound on the next backoff wait (a server's Retry-After hint; zero
// means the jittered schedule alone decides).
type outcome struct {
	err       error
	retryable bool
	minDelay  time.Duration
}

// do runs attempt (passed the 0-based attempt number) until it
// succeeds, fails terminally, exhausts the retry budget, or ctx
// expires. A ctx expiring mid-backoff returns ctx.Err() itself —
// callers can distinguish "the caller gave up" from "the attempts ran
// out" by comparing against ctx.Err().
func (p retryPlan) do(ctx context.Context, attempt func(n int) outcome) error {
	jitter := dist.NewRNG(p.seed)
	backoff := p.backoff
	var last outcome
	for n := 0; n <= p.maxRetries; n++ {
		if n > 0 {
			if p.onRetry != nil {
				p.onRetry(n)
			}
			d := time.Duration((0.5 + jitter.Float64()) * float64(backoff))
			backoff *= 2
			if d < last.minDelay {
				d = last.minDelay
			}
			if !sleepCtx(ctx, d) {
				return ctx.Err()
			}
		}
		last = attempt(n)
		if last.err == nil || !last.retryable {
			return last.err
		}
	}
	return last.err
}

// sleepCtx sleeps for d (no-op when non-positive) unless ctx is done
// first; it reports whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
