package obs

import "sync"

// EventType labels one query-lifecycle event from the queue simulator.
type EventType string

// The simulator's lifecycle vocabulary, in the order a sprinted query
// typically experiences it.
const (
	// EvArrival: a query entered the system. Value is its sampled
	// service time.
	EvArrival EventType = "arrival"
	// EvServiceStart: the query left the queue and began executing.
	// Value is its queueing delay.
	EvServiceStart EventType = "service_start"
	// EvTimeout: the query's sprint timeout fired (whether or not a
	// sprint could be engaged). Value is the configured timeout.
	EvTimeout EventType = "timeout"
	// EvSprintStart: the mechanism engaged for this query. Value is the
	// budget level at engagement.
	EvSprintStart EventType = "sprint_start"
	// EvSprintStop: the query stopped sprinting (departure or forced
	// stop). Value is the sprint's duration in seconds.
	EvSprintStop EventType = "sprint_stop"
	// EvBudgetExhausted: the shared budget drained to empty, forcing
	// every active sprint to stop. Query is -1; Value is the number of
	// sprints stopped.
	EvBudgetExhausted EventType = "budget_exhausted"
	// EvRefill: the budget became usable again after an exhaustion.
	// Value is the budget level at that moment.
	EvRefill EventType = "refill"
	// EvDeparture: the query completed. Value is its response time.
	EvDeparture EventType = "departure"
	// EvDispatch: a multi-queue dispatcher routed the arrival to a
	// server. Value is the chosen server index. Emitted only when the
	// simulator runs with more than one server.
	EvDispatch EventType = "dispatch"
	// EvPreempt: a size-ordered discipline (SRPT/SERPT) suspended the
	// query mid-service in favour of a shorter arrival. Value is the
	// query's remaining service time at suspension.
	EvPreempt EventType = "preempt"
	// EvResume: a previously preempted query re-entered service. Value
	// is its remaining service time at resumption.
	EvResume EventType = "resume"
)

// QueryEvent is one per-query lifecycle record emitted by the simulator.
// Time is virtual (simulated) seconds; Query is the arrival index within
// the run (-1 for system-wide events).
type QueryEvent struct {
	Type  EventType `json:"type"`
	Time  float64   `json:"t"`
	Query int       `json:"query"`
	Value float64   `json:"value,omitempty"`
}

// QueryTracer receives lifecycle events. Implementations must tolerate
// calls from whichever goroutine runs the simulation; a tracer shared
// across parallel replications must be safe for concurrent use.
//
// Simulators treat a nil tracer as "tracing off" and skip every hook, so
// enabling the interface costs nothing when unused.
type QueryTracer interface {
	Event(QueryEvent)
}

// TracerFunc adapts a function to the QueryTracer interface.
type TracerFunc func(QueryEvent)

// Event calls f.
func (f TracerFunc) Event(e QueryEvent) { f(e) }

// RingTracer is a bounded, concurrency-safe event sink: it keeps the last
// `capacity` events and counts everything it has ever seen.
type RingTracer struct {
	mu    sync.Mutex
	buf   []QueryEvent
	next  int
	fill  int
	total uint64
}

// NewRingTracer returns a tracer retaining the last capacity events
// (default 4096 when capacity <= 0).
func NewRingTracer(capacity int) *RingTracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &RingTracer{buf: make([]QueryEvent, capacity)}
}

// Event records e.
func (t *RingTracer) Event(e QueryEvent) {
	t.mu.Lock()
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	if t.fill < len(t.buf) {
		t.fill++
	}
	t.total++
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *RingTracer) Events() []QueryEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]QueryEvent, 0, t.fill)
	start := t.next - t.fill
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.fill; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Total returns how many events the tracer has seen (including any that
// the ring has since evicted).
func (t *RingTracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Count returns how many retained events have the given type.
func (t *RingTracer) Count(typ EventType) int {
	n := 0
	for _, e := range t.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// MultiTracer fans events out to several tracers.
type MultiTracer []QueryTracer

// Event forwards e to every non-nil tracer.
func (m MultiTracer) Event(e QueryEvent) {
	for _, t := range m {
		if t != nil {
			t.Event(e)
		}
	}
}
