package fault

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"mdsprint/internal/obs"
)

// HTTPFaultConfig scripts transport-level faults for the HTTP harness:
// connection drops and injected 5xx responses.
type HTTPFaultConfig struct {
	// Seed drives the per-request fault decisions (keyed by request
	// sequence number).
	Seed uint64
	// DropProb is the probability a request fails with a connection
	// error before reaching the upstream.
	DropProb float64
	// ErrorProb is the probability the transport synthesizes a 503
	// without contacting the upstream.
	ErrorProb float64
	// Metrics receives the injector's counters; nil records into
	// obs.Default().
	Metrics *obs.Registry
}

// RoundTripper wraps an http.RoundTripper with seeded fault injection.
// Fault decisions are keyed by request sequence number, so a generator
// replaying the same request count against the same seed sees the same
// fault schedule. Safe for concurrent use.
type RoundTripper struct {
	base http.RoundTripper
	cfg  HTTPFaultConfig

	mu  sync.Mutex
	seq uint64

	drops *obs.Counter
	fives *obs.Counter
}

// NewRoundTripper wraps base (nil means http.DefaultTransport) with the
// scripted faults.
func NewRoundTripper(base http.RoundTripper, cfg HTTPFaultConfig) *RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	reg := obs.Or(cfg.Metrics)
	return &RoundTripper{
		base:  base,
		cfg:   cfg,
		drops: reg.Counter("mdsprint_fault_http_drops_total", "injected connection drops"),
		fives: reg.Counter("mdsprint_fault_http_5xx_total", "injected 5xx responses"),
	}
}

// RoundTrip applies the request's scripted faults, then (if it
// survives) forwards to the wrapped transport.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	i := rt.seq
	rt.seq++
	rt.mu.Unlock()
	rng := itemRNG(rt.cfg.Seed, chanHTTP, i)
	drop := rt.cfg.DropProb > 0 && rng.Float64() < rt.cfg.DropProb
	fiveXX := rt.cfg.ErrorProb > 0 && rng.Float64() < rt.cfg.ErrorProb
	if drop {
		rt.drops.Inc()
		return nil, fmt.Errorf("fault: injected connection drop (request %d)", i)
	}
	if fiveXX {
		rt.fives.Inc()
		body := "fault: injected 503"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return rt.base.RoundTrip(req)
}
