package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRetryPlanZeroRetries pins the single-attempt contract: maxRetries
// 0 means exactly one try, no backoff wait, no onRetry callback, and
// the attempt's error surfaces unchanged.
func TestRetryPlanZeroRetries(t *testing.T) {
	boom := errors.New("boom")
	calls, retries := 0, 0
	err := retryPlan{maxRetries: 0, backoff: time.Hour, onRetry: func(int) { retries++ }}.
		do(context.Background(), func(n int) outcome {
			calls++
			if n != 0 {
				t.Fatalf("attempt number %d, want 0", n)
			}
			return outcome{err: boom, retryable: true}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 1 || retries != 0 {
		t.Fatalf("calls=%d retries=%d, want 1 attempt and 0 retry callbacks", calls, retries)
	}
}

// TestRetryPlanStopsOnTerminalFailure: a non-retryable outcome ends the
// plan immediately even with budget left.
func TestRetryPlanStopsOnTerminalFailure(t *testing.T) {
	calls := 0
	err := retryPlan{maxRetries: 5, backoff: time.Nanosecond}.
		do(context.Background(), func(int) outcome {
			calls++
			return outcome{err: fmt.Errorf("HTTP 400"), retryable: false}
		})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want terminal error after 1 attempt", err, calls)
	}
}

// TestRetryPlanSucceedsAfterRetries: retryable failures burn budget
// until an attempt succeeds; onRetry sees each re-attempt.
func TestRetryPlanSucceedsAfterRetries(t *testing.T) {
	calls, retries := 0, 0
	err := retryPlan{maxRetries: 3, backoff: time.Nanosecond, onRetry: func(int) { retries++ }}.
		do(context.Background(), func(n int) outcome {
			calls++
			if n < 2 {
				return outcome{err: fmt.Errorf("HTTP 503"), retryable: true}
			}
			return outcome{}
		})
	if err != nil {
		t.Fatalf("err = %v, want success on third attempt", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 attempts and 2 retry callbacks", calls, retries)
	}
}

// TestRetryPlanDeadlineMidBackoff pins the abandonment path: when the
// context expires inside a backoff wait, do returns ctx.Err() itself
// (not the last attempt's error) without running another attempt.
func TestRetryPlanDeadlineMidBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls := 0
	err := retryPlan{maxRetries: 10, backoff: time.Hour}.
		do(ctx, func(int) outcome {
			calls++
			return outcome{err: fmt.Errorf("HTTP 500"), retryable: true}
		})
	if err != ctx.Err() {
		t.Fatalf("err = %v, want ctx.Err() %v", err, ctx.Err())
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want exactly the pre-deadline attempt", calls)
	}
}

// TestRetryPlanHonorsminDelay: an attempt's minDelay (a server's
// Retry-After) floors the next wait even when the jittered backoff
// would retry sooner.
func TestRetryPlanHonorsMinDelay(t *testing.T) {
	const floor = 60 * time.Millisecond
	start := time.Now()
	calls := 0
	err := retryPlan{maxRetries: 1, backoff: time.Nanosecond}.
		do(context.Background(), func(int) outcome {
			calls++
			if calls == 1 {
				return outcome{err: fmt.Errorf("HTTP 429"), retryable: true, minDelay: floor}
			}
			return outcome{}
		})
	if err != nil {
		t.Fatalf("err = %v, want success", err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("retried after %v, want at least the %v Retry-After floor", elapsed, floor)
	}
}
