package detflow

import (
	"context"
	"os"
	"time"
)

// t0 is stamped at package initialization. The call graph has no node
// for a package-level initializer, so only the initializer scan sees it.
var t0 = time.Now()

// later is a literal in an initializer: it has no graph node either.
var later = func() time.Duration { return time.Since(t0) }

func mode() string {
	return os.Getenv("FIXTURE_MODE")
}

// fanOut launches a goroutine in the deterministic package itself. Its
// result is committed by index, so it stays quiet.
func fanOut(ctx context.Context, out []int) {
	done := make(chan struct{})
	go func() {
		out[0] = 1
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
}
