package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the robust sprintd client: per-attempt timeouts and a
// jittered-backoff retry plan (retryPlan), honoring the daemon's
// Retry-After hints. Shed responses (429/503) and transport errors
// retry; other client errors are terminal.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7676".
	BaseURL string
	// HTTP performs the requests; nil uses http.DefaultClient. Tests
	// inject fault.RoundTripper transports here.
	HTTP *http.Client
	// MaxRetries and Backoff shape the retry plan (defaults 3 and
	// 50ms); Seed drives its jitter.
	MaxRetries int
	Backoff    time.Duration
	Seed       uint64
	// AttemptTimeout bounds each individual attempt (default 2s), so
	// one black-holed request never consumes the caller's whole
	// deadline.
	AttemptTimeout time.Duration
	// OnRetry observes re-attempts (metrics hook). May be nil.
	OnRetry func(attempt int)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) plan() retryPlan {
	retries, backoff := c.MaxRetries, c.Backoff
	if retries == 0 {
		retries = 3
	}
	if retries < 0 { // explicit "no retries"
		retries = 0
	}
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	return retryPlan{
		maxRetries: retries, backoff: backoff, seed: c.Seed, onRetry: c.OnRetry,
	}
}

// attemptTimeout returns the per-attempt bound.
func (c *Client) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return 2 * time.Second
}

// post runs one robust POST: marshal once, retry per the plan, decode
// into out (when out is non-nil and the response is 2xx).
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("server: encoding %s request: %w", path, err)
	}
	url := strings.TrimSuffix(c.BaseURL, "/") + path
	return c.plan().do(ctx, func(int) outcome {
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return outcome{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.httpClient().Do(req)
		if err != nil {
			// Transport-level failure (drop, timeout): worth retrying
			// unless the caller's own ctx is what expired.
			return outcome{err: err, retryable: ctx.Err() == nil}
		}
		defer func() {
			//lint:ignore errdrop response body close after a full read
			_ = resp.Body.Close()
		}()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if out == nil {
				return outcome{}
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return outcome{err: fmt.Errorf("server: decoding %s response: %w", path, err)}
			}
			return outcome{}
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode >= 500:
			// Shed or transient server failure: retry, flooring the
			// backoff at the server's Retry-After hint.
			//lint:ignore errdrop the body is error detail only; a truncated read still yields a usable message
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return outcome{
				err:       fmt.Errorf("server: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg))),
				retryable: true,
				minDelay:  retryAfter(resp),
			}
		default:
			//lint:ignore errdrop the body is error detail only; a truncated read still yields a usable message
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return outcome{
				err: fmt.Errorf("server: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg))),
			}
		}
	})
}

// retryAfter parses a Retry-After seconds hint; 0 when absent.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Decide asks the daemon for one policy decision.
func (c *Client) Decide(ctx context.Context, tenant string, rate float64) (DecideResponse, error) {
	var out DecideResponse
	err := c.post(ctx, "/v1/decide", DecideRequest{Tenant: tenant, Rate: rate}, &out)
	return out, err
}

// Observe feeds one observed response time back to the daemon.
func (c *Client) Observe(ctx context.Context, tenant string, rate, observed float64) error {
	return c.post(ctx, "/v1/observe", ObserveRequest{Tenant: tenant, Rate: rate, Observed: observed}, nil)
}

// Fault scripts a model fault on a live tenant (test surface).
func (c *Client) Fault(ctx context.Context, req FaultRequest) error {
	return c.post(ctx, "/v1/fault", req, nil)
}

// Reload hot-swaps the daemon's tenant set.
func (c *Client) Reload(ctx context.Context, cfgs []TenantConfig) error {
	return c.post(ctx, "/v1/reload", ReloadRequest{Tenants: cfgs}, nil)
}

// Tenants lists the daemon's tenants.
func (c *Client) Tenants(ctx context.Context) ([]TenantStatus, error) {
	url := strings.TrimSuffix(c.BaseURL, "/") + "/v1/tenants"
	var out []TenantStatus
	err := c.plan().do(ctx, func(int) outcome {
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
		if err != nil {
			return outcome{err: err}
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return outcome{err: err, retryable: ctx.Err() == nil}
		}
		defer func() {
			//lint:ignore errdrop response body close after a full read
			_ = resp.Body.Close()
		}()
		if resp.StatusCode != http.StatusOK {
			return outcome{
				err:       fmt.Errorf("server: /v1/tenants: %s", resp.Status),
				retryable: resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests,
				minDelay:  retryAfter(resp),
			}
		}
		out = out[:0]
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return outcome{err: fmt.Errorf("server: decoding /v1/tenants: %w", err)}
		}
		return outcome{}
	})
	return out, err
}
