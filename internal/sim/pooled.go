// Package sim provides the discrete-event simulation engine both the
// ground-truth testbed (internal/testbed) and the model-side queue
// simulator (internal/queuesim) are built on: a monotonic virtual clock
// and a cancellable, allocation-free event heap.
//
// The paper's reference simulator (Algorithm 1) steps a microsecond-
// resolution clock; scheduling events on a heap is semantically equivalent
// (queuesim's tests cross-validate against a faithful tick-stepped
// implementation) and orders of magnitude faster, which is what makes the
// policy-space exploration of Section 4 practical.
//
// A policy search performs millions of queuesim runs (Section 3.6), so the
// PooledEngine allocates nothing per event: events live in a reusable slot
// pool addressed by generation-checked Handles, callbacks are registered
// once per consumer and invoked by CallbackID with an int32 argument
// (typically a pooled-object index), and the priority queue is a binary
// heap of inline (time, seq) keys over slot indices, sifted by moving a
// hole; Reschedule re-keys a live event in place. Events scheduled in
// time order, such as a constant sprint timeout after each arrival, can
// bypass the heap through ScheduleFIFO: they queue in a FIFO lane that
// shares the slot pool and the seq counter, where a cancel is O(1) and
// leaves a dead entry behind for Step or a compaction to drop. Step
// fires the lane head or the heap top, whichever is first by (time,
// seq). Events fire in (time, seq) order with seq assigned at Schedule
// time, so same-time events fire in scheduling order whatever their
// queue, and cancelled events never fire. queuesim's differential suite
// checks the engine bit for bit against a test-only copy of the original
// closure-and-heap engine.
package sim

import "fmt"

// CallbackID names a callback registered with PooledEngine.Register.
type CallbackID int32

// Handle identifies a scheduled event. Handles are generation-checked:
// once the event fires, is cancelled or is rescheduled, the old handle
// goes stale — Cancel and Reschedule on a stale handle are safe no-ops,
// never a corruption of the slot's next tenant. The zero Handle is always
// stale. Handles must not be retained across Reset.
type Handle struct {
	idx int32
	gen uint32
}

// slot is one pooled event's payload; its (time, seq) key lives in its
// heap or lane entry. Slots are recycled through a free list; gen
// increments on every release and every Reschedule so stale Handles can
// be detected. heapIdx is the slot's position in the heap, slotFree
// while free and slotLane while its event waits in the FIFO lane.
type slot struct {
	gen     uint32
	heapIdx int32
	cb      CallbackID
	arg     int32
}

const (
	slotFree int32 = -1
	slotLane int32 = -2
)

// entry is one heap or lane element: an event's key and its slot. A lane
// entry also records the slot's generation when it was queued, and is
// dead once the slot's generation has moved on; heap entries leave gen
// zero, since a heap event is unlinked the moment it goes.
type entry struct {
	time float64
	seq  uint64
	idx  int32
	gen  uint32
}

// less orders entries by (time, seq). Seqs are unique, so this is a
// strict total order and every heap shape fires events identically.
func (a entry) less(b entry) bool {
	return a.time < b.time || (!(b.time < a.time) && a.seq < b.seq)
}

// PooledEngine is a discrete-event simulator core with pooled events and
// registered callbacks. It is not safe for concurrent use; run one per
// goroutine. The zero value is ready to use, but consumers normally call
// NewPooled and Register their callbacks once, then Reset between runs to
// reuse the slab.
type PooledEngine struct {
	now   float64
	seq   uint64
	slots []slot
	free  []int32 // recycled slot indices
	heap  []entry // pending events ordered by (time, seq)
	cbs   []func(arg int32)

	// The FIFO lane: lane[laneHead:] in (time, seq) order, laneLive of
	// its entries live.
	lane     []entry
	laneHead int
	laneLive int
	laneLast float64 // time of the latest ScheduleFIFO event
}

// NewPooled returns a pooled engine with the clock at zero.
func NewPooled() *PooledEngine {
	//lint:ignore hotalloc one engine per Runner, constructed on first use and recycled thereafter
	return &PooledEngine{}
}

// Register adds a callback and returns its ID. Callbacks are registered
// once per engine (they survive Reset); Schedule refers to them by ID so
// no per-event closure is ever allocated.
func (e *PooledEngine) Register(fn func(arg int32)) CallbackID {
	if fn == nil {
		panic("sim: nil callback")
	}
	e.cbs = append(e.cbs, fn)
	return CallbackID(len(e.cbs) - 1)
}

// Now returns the current virtual time.
func (e *PooledEngine) Now() float64 { return e.now }

// Pending returns the number of scheduled (unfired, uncancelled) events.
func (e *PooledEngine) Pending() int { return len(e.heap) + e.laneLive }

// HighWater returns the maximum number of simultaneously pending events
// since the last Reset — the slab's size, since a slot is only ever
// added when every existing one is pending.
func (e *PooledEngine) HighWater() int { return len(e.slots) }

// Reset rewinds the clock to zero and empties the event set while keeping
// the slab, heap, lane and free-list capacity (and all registered
// callbacks), so a runner can replay back-to-back simulations without
// reallocating. Handles issued before Reset must not be used afterwards.
func (e *PooledEngine) Reset() {
	e.now = 0
	e.seq = 0
	e.slots = e.slots[:0]
	e.free = e.free[:0]
	e.heap = e.heap[:0]
	e.lane, e.laneHead, e.laneLive = e.lane[:0], 0, 0
	e.laneLast = 0
}

// checkTime rejects times before Now, which would corrupt causality.
func (e *PooledEngine) checkTime(at float64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
}

// allocSlot checks an event's time and callback and takes a slot for it,
// recycling freed slots before growing the slab.
func (e *PooledEngine) allocSlot(at float64, cb CallbackID, arg int32) int32 {
	e.checkTime(at)
	if cb < 0 || int(cb) >= len(e.cbs) {
		panic(fmt.Sprintf("sim: unregistered callback %d", cb))
	}
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		s := &e.slots[idx]
		s.cb, s.arg = cb, arg
		return idx
	}
	e.slots = append(e.slots, slot{gen: 1, cb: cb, arg: arg})
	return int32(len(e.slots) - 1)
}

// Schedule registers callback cb to run with arg at time at. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
// Events at the identical time fire in scheduling order.
func (e *PooledEngine) Schedule(at float64, cb CallbackID, arg int32) Handle {
	idx := e.allocSlot(at, cb, arg)
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, entry{time: at, seq: e.seq, idx: idx})
	e.seq++
	return Handle{idx: idx, gen: e.slots[idx].gen}
}

// ScheduleFIFO is Schedule for an event never earlier than the previous
// ScheduleFIFO event since Reset, such as a constant timeout after each
// arrival. It panics when at breaks that order. The event queues in the
// FIFO lane instead of the heap, so scheduling and cancelling it are O(1);
// it fires exactly when Schedule would have fired it.
func (e *PooledEngine) ScheduleFIFO(at float64, cb CallbackID, arg int32) Handle {
	if at < e.laneLast {
		panic(fmt.Sprintf("sim: FIFO event at %v before the previous one at %v", at, e.laneLast))
	}
	idx := e.allocSlot(at, cb, arg)
	e.laneLast = at
	s := &e.slots[idx]
	s.heapIdx = slotLane
	switch {
	case e.laneLive == 0: // every entry left is dead
		e.lane, e.laneHead = e.lane[:0], 0
	case len(e.lane) == cap(e.lane) && 2*e.laneHead >= len(e.lane):
		// Slide the pending entries down rather than grow, once the
		// popped head takes half the buffer.
		e.lane, e.laneHead = e.lane[:copy(e.lane, e.lane[e.laneHead:])], 0
	}
	e.lane = append(e.lane, entry{at, e.seq, idx, s.gen})
	e.laneLive++
	e.seq++
	return Handle{idx: idx, gen: s.gen}
}

// laneDead reports whether a lane entry's event has fired, been
// cancelled or been rescheduled away.
func (e *PooledEngine) laneDead(ent entry) bool { return e.slots[ent.idx].gen != ent.gen }

// laneDropped accounts for a lane event that went dead in place (its
// slot's generation already bumped), compacting the lane once more than
// half of it is dead so cancelled entries cannot pile up behind a far
// head.
func (e *PooledEngine) laneDropped() {
	e.laneLive--
	if len(e.lane)-e.laneHead <= 2*e.laneLive {
		return
	}
	n := 0
	for _, ent := range e.lane[e.laneHead:] {
		if !e.laneDead(ent) {
			e.lane[n] = ent
			n++
		}
	}
	e.lane, e.laneHead = e.lane[:n], 0
}

// laneFront drops dead entries off the lane's head and returns the first
// live one. The lane must hold a live entry.
func (e *PooledEngine) laneFront() entry {
	for e.laneDead(e.lane[e.laneHead]) {
		e.laneHead++
	}
	return e.lane[e.laneHead]
}

// After schedules cb(arg) delay time units from now.
func (e *PooledEngine) After(delay float64, cb CallbackID, arg int32) Handle {
	return e.Schedule(e.now+delay, cb, arg)
}

// lookup resolves h to its slot index if h is current, or -1 when h is
// stale (zero, already fired, cancelled, rescheduled, or from before a
// Reset).
func (e *PooledEngine) lookup(h Handle) int32 {
	if h.gen == 0 || int(h.idx) >= len(e.slots) {
		return -1
	}
	s := &e.slots[h.idx]
	if s.gen != h.gen || s.heapIdx == slotFree {
		return -1
	}
	return h.idx
}

// Cancel removes the event named by h so it never fires, reporting whether
// anything was cancelled. Cancelling a stale handle (zero, already fired,
// already cancelled) is a no-op returning false.
func (e *PooledEngine) Cancel(h Handle) bool {
	idx := e.lookup(h)
	if idx < 0 {
		return false
	}
	if hi := e.slots[idx].heapIdx; hi == slotLane {
		e.freeSlot(idx)
		e.laneDropped()
	} else {
		e.heapRemove(int(hi))
		e.freeSlot(idx)
	}
	return true
}

// Reschedule moves the live event h to time at with the same callback and
// argument, returning its new handle; h goes stale. The event takes a
// fresh seq exactly as Schedule would, so it fires as Cancel followed by
// Schedule would make it fire, but it keeps its slot and is re-keyed in
// place. A FIFO-lane event moves into the heap, as Schedule would place
// it. A stale h is a no-op returning the zero Handle — it must never
// resurrect a recycled slot.
func (e *PooledEngine) Reschedule(h Handle, at float64) Handle {
	idx := e.lookup(h)
	if idx < 0 {
		return Handle{}
	}
	e.checkTime(at)
	s := &e.slots[idx]
	s.gen++
	ent := entry{time: at, seq: e.seq, idx: idx}
	if s.heapIdx == slotLane {
		e.laneDropped()
		e.heap = append(e.heap, entry{})
		e.siftUp(len(e.heap)-1, ent)
	} else {
		e.fix(int(s.heapIdx), ent)
	}
	e.seq++
	return Handle{idx: idx, gen: s.gen}
}

// freeSlot releases idx back to the pool, bumping its generation so
// outstanding handles to it go stale.
func (e *PooledEngine) freeSlot(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.heapIdx = slotFree
	e.free = append(e.free, idx)
}

// Step fires the next event. It reports false when no events remain. The
// slot is released before the callback runs, so callbacks can schedule
// new events that reuse it (the fired event's own handle goes stale at
// that moment).
//
//sprint:hotpath event dispatch fires millions of times per run (BenchmarkPooledEngine)
func (e *PooledEngine) Step() bool {
	var top entry
	fromLane := false
	if e.laneLive > 0 {
		top = e.laneFront()
		fromLane = len(e.heap) == 0 || top.less(e.heap[0])
	}
	if fromLane {
		e.laneHead++
		e.laneLive--
	} else {
		if len(e.heap) == 0 {
			return false
		}
		top = e.heap[0]
		e.heapRemove(0)
	}
	s := &e.slots[top.idx]
	cb, arg := s.cb, s.arg
	e.freeSlot(top.idx)
	e.now = top.time
	e.cbs[cb](arg)
	return true
}

// RunAll fires events until none remain, returning the count. Use only
// with workloads that are guaranteed to quiesce, otherwise this loops
// forever.
func (e *PooledEngine) RunAll() int {
	fired := 0
	for e.Step() {
		fired++
	}
	return fired
}

// heapRemove unlinks the entry at heap position i.
func (e *PooledEngine) heapRemove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i != n {
		e.fix(i, last)
	}
}

// fix fills the hole at heap position i with ent, sifting it whichever
// way its key requires.
func (e *PooledEngine) fix(i int, ent entry) {
	if i > 0 && ent.less(e.heap[(i-1)/2]) {
		e.siftUp(i, ent)
	} else {
		e.siftDown(i, ent)
	}
}

// place stores ent at heap position i and records the back-pointer.
func (e *PooledEngine) place(i int, ent entry) {
	e.heap[i] = ent
	e.slots[ent.idx].heapIdx = int32(i)
}

// siftUp moves the hole at i rootward past every parent ordering after
// ent, then fills it with ent.
func (e *PooledEngine) siftUp(i int, ent entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ent.less(e.heap[parent]) {
			break
		}
		e.place(i, e.heap[parent])
		i = parent
	}
	e.place(i, ent)
}

// siftDown moves the hole at i leafward past every smaller child
// ordering before ent, then fills it with ent.
func (e *PooledEngine) siftDown(i int, ent entry) {
	n := len(e.heap)
	for child := 2*i + 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n && e.heap[r].less(e.heap[child]) {
			child = r
		}
		if !e.heap[child].less(ent) {
			break
		}
		e.place(i, e.heap[child])
		i = child
	}
	e.place(i, ent)
}
