package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mdsprint/internal/stats"
)

// The host this benchmark runs on is a VM that shares its machine's
// memory system with other VMs, and its speed drifts by ±30% over
// minutes as their load changes. Every operation slows together: two
// workloads run back to back are fast or slow together. So a run times
// a host probe next to its operations: a fixed piece of the benchmark's
// own code that does the same kind of work as the workload but calls
// nothing in the program. Each time metric is reported as measured ×
// reference ÷ probe, the time the operation would have taken had the
// host run the probe at its reference speed, which cancels the drift
// the two share. A change to the program moves the operations and not
// the probe, so it moves the adjusted metrics in full.

// Reference probe times: their medians on the 2-vCPU VM the bounds in
// BENCHMARK.json were fitted on. Only ratios between runs matter.
const (
	simProbeRef  = 0.0183  // seconds per sim probe
	echoProbeRef = 40.5e-6 // seconds per echo request
)

const (
	simProbeJobs = 100000 // completions per sim probe goroutine
	// echoProbeShare is the share of a run's measured time that each echo
	// probe sends requests for: 0.1 s of a 30 s run.
	echoProbeShare = 1.0 / 300
	echoProbeMsg   = "search" // tenant name the echo probe sends
)

// hostProbe measures the host beside a workload's operations. Each
// measurement yields a factor, reference ÷ probe time, and what the
// probe itself cost the process is kept out of the per-op metrics.
type hostProbe struct {
	ref     float64
	run     func() (float64, error)
	factors []float64 // one per measurement of the current phase
	used    usage     // process usage spent inside the current phase's probes
}

// measure runs the probe once. It first finishes the garbage collection
// the workload's last operation left pending, so the probe does not pay
// for it and the workload's allocation does not move the probe.
func (p *hostProbe) measure() error {
	before := readUsage()
	runtime.GC()
	t, err := p.run()
	p.used = p.used.add(readUsage().sub(before))
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	p.factors = append(p.factors, p.ref/t)
	return nil
}

// endPhase returns the median factor of the phase that ends, and starts
// the next one.
func (p *hostProbe) endPhase() float64 {
	f := stats.Median(p.factors)
	p.factors, p.used = nil, usage{}
	return f
}

// newSimProbe returns the pipeline's probe: one small discrete-event
// simulation of an M/M/1 queue per CPU, run in parallel, allocating an
// event per arrival and completion as the program's simulators do.
func newSimProbe() *hostProbe {
	return &hostProbe{ref: simProbeRef, run: func() (float64, error) {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				simulateMM1(uint64(i), simProbeJobs)
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds(), nil
	}}
}

type simEvent struct {
	at     float64
	depart bool
}

type eventHeap []*simEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// simulateMM1 simulates jobs completions of an M/M/1 queue at 75%
// utilization and returns their mean response time.
func simulateMM1(seed uint64, jobs int) float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	h := &eventHeap{{at: rng.ExpFloat64() / 0.75}}
	var waiting []float64 // arrival times of queued jobs
	var inService float64
	busy := false
	total := 0.0
	for done := 0; done < jobs; {
		e := heap.Pop(h).(*simEvent)
		switch {
		case !e.depart:
			heap.Push(h, &simEvent{at: e.at + rng.ExpFloat64()/0.75})
			if busy {
				waiting = append(waiting, e.at)
				continue
			}
			busy, inService = true, e.at
			heap.Push(h, &simEvent{at: e.at + rng.ExpFloat64(), depart: true})
		default:
			done++
			total += e.at - inService
			if len(waiting) == 0 {
				busy = false
				continue
			}
			inService, waiting = waiting[0], waiting[1:]
			heap.Push(h, &simEvent{at: e.at + rng.ExpFloat64(), depart: true})
		}
	}
	return total / float64(jobs)
}

// echoMessage is the echo probe's request and response, shaped like a
// decide.
type echoMessage struct {
	Tenant  string  `json:"tenant"`
	Rate    float64 `json:"rate"`
	Timeout float64 `json:"timeout_s"`
}

// echoProbe is the serve workloads' probe: a loopback HTTP server of the
// benchmark's own that decodes a JSON request and encodes a JSON answer,
// driven in a closed loop by one connection per tenant connection of
// the workload.
type echoProbe struct {
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
}

func startEchoProbe(conns int) (*echoProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo probe: listening: %w", err)
	}
	p := &echoProbe{
		hs:     &http.Server{Handler: http.HandlerFunc(echo)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/echo",
	}
	for range conns {
		p.clients = append(p.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

func echo(w http.ResponseWriter, r *http.Request) {
	var m echoMessage
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m.Timeout = 10 * m.Rate
	body, err := json.Marshal(m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		// The client sees the cut answer and fails the probe.
		return
	}
}

// hostProbe returns the probe that runs the echo loop for d, at least
// one request per connection, and measures its seconds per request.
func (p *echoProbe) hostProbe(d time.Duration) *hostProbe {
	return &hostProbe{ref: echoProbeRef, run: func() (float64, error) { return p.round(d) }}
}

func (p *echoProbe) round(d time.Duration) (float64, error) {
	body, err := json.Marshal(echoMessage{Tenant: echoProbeMsg, Rate: 0.5})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	deadline := start.Add(d)
	counts := make([]int, len(p.clients))
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for counts[i] == 0 || time.Now().Before(deadline) {
				if errs[i] = echoOnce(c, p.url, body); errs[i] != nil {
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	n := 0
	for _, k := range counts {
		n += k
	}
	// Seconds per request on one connection: the connections run in
	// parallel, each in a closed loop.
	return elapsed * float64(len(p.clients)) / float64(n), nil
}

func echoOnce(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m echoMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("decoding echo: %w", err)
	}
	if resp.StatusCode != http.StatusOK || m.Tenant != echoProbeMsg {
		return fmt.Errorf("echo answered %s with tenant %q", resp.Status, m.Tenant)
	}
	// Reading to the end lets the connection be reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("reading echo: %w", err)
	}
	return nil
}

// stop shuts the echo server down and waits for it.
func (p *echoProbe) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	return err
}
