package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
)

// recorder wires a PooledEngine to a log of (arg, time) firings.
type recorder struct {
	eng  *PooledEngine
	cb   CallbackID
	args []int32
	when []float64
}

func newRecorder() *recorder {
	r := &recorder{eng: NewPooled()}
	r.cb = r.eng.Register(func(arg int32) {
		r.args = append(r.args, arg)
		r.when = append(r.when, r.eng.Now())
	})
	return r
}

func TestPooledFiresInTimeOrder(t *testing.T) {
	r := newRecorder()
	for i, at := range []float64{5, 1, 3, 2, 4} {
		r.eng.Schedule(at, r.cb, int32(i))
	}
	r.eng.RunAll()
	if !sort.Float64sAreSorted(r.when) {
		t.Fatalf("events fired out of order: %v", r.when)
	}
	if len(r.args) != 5 {
		t.Fatalf("fired %d events, want 5", len(r.args))
	}
}

func TestPooledSameTimeFIFO(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 10; i++ {
		r.eng.Schedule(7, r.cb, int32(i))
	}
	r.eng.RunAll()
	for i, v := range r.args {
		if v != int32(i) {
			t.Fatalf("same-time events not FIFO: %v", r.args)
		}
	}
}

// TestPooledSameTimeFIFOAfterChurn repeats the FIFO-tie check on a slab
// whose free list has been shuffled by cancellations, so slot indices no
// longer correlate with scheduling order — the (time, seq) comparator,
// not slab layout, must carry the ordering.
func TestPooledSameTimeFIFOAfterChurn(t *testing.T) {
	r := newRecorder()
	var hs []Handle
	for i := 0; i < 16; i++ {
		hs = append(hs, r.eng.Schedule(1, r.cb, int32(100+i)))
	}
	// Cancel in an interleaved order to scramble the free list.
	for _, i := range []int{3, 11, 0, 7, 15, 4, 8, 1} {
		if !r.eng.Cancel(hs[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	for i := 0; i < 10; i++ {
		r.eng.Schedule(2, r.cb, int32(i))
	}
	r.eng.RunAll()
	want := []int32{102, 105, 106, 109, 110, 112, 113, 114, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(r.args) != len(want) {
		t.Fatalf("fired %v, want %v", r.args, want)
	}
	for i := range want {
		if r.args[i] != want[i] {
			t.Fatalf("fired %v, want %v", r.args, want)
		}
	}
}

func TestPooledCancelPreventsFiring(t *testing.T) {
	r := newRecorder()
	h := r.eng.Schedule(1, r.cb, 1)
	r.eng.Schedule(2, r.cb, 2)
	if !r.eng.Cancel(h) {
		t.Fatal("cancel of a live event returned false")
	}
	if r.eng.Cancel(h) {
		t.Fatal("second cancel of the same handle returned true")
	}
	r.eng.RunAll()
	if len(r.args) != 1 || r.args[0] != 2 {
		t.Fatalf("fired %v, want [2]", r.args)
	}
}

func TestPooledZeroHandleStale(t *testing.T) {
	r := newRecorder()
	if r.eng.Cancel(Handle{}) {
		t.Fatal("cancelling the zero Handle returned true")
	}
	if h := r.eng.Reschedule(Handle{}, 5); h != (Handle{}) {
		t.Fatal("rescheduling the zero Handle returned a live handle")
	}
}

// TestPooledCancelAfterFire checks a fired event's handle is stale the
// moment its callback runs: cancel and reschedule through it are no-ops
// even though the slot may already host a new event.
func TestPooledCancelAfterFire(t *testing.T) {
	r := newRecorder()
	h := r.eng.Schedule(1, r.cb, 1)
	r.eng.RunAll()
	if r.eng.Cancel(h) {
		t.Fatal("cancelling a fired event's handle returned true")
	}
	if got := r.eng.Reschedule(h, 10); got != (Handle{}) {
		t.Fatal("rescheduling a fired event's handle returned a live handle")
	}
	if r.eng.Pending() != 0 {
		t.Fatalf("pending %d after stale operations, want 0", r.eng.Pending())
	}
}

// TestPooledStaleHandleRecycledSlot is the generation-check regression
// test: after a slot is freed and re-tenanted, the old handle must not
// reach the new tenant.
func TestPooledStaleHandleRecycledSlot(t *testing.T) {
	r := newRecorder()
	old := r.eng.Schedule(1, r.cb, 1)
	if !r.eng.Cancel(old) {
		t.Fatal("cancel failed")
	}
	// Reuses the freed slot: same idx, bumped generation.
	fresh := r.eng.Schedule(2, r.cb, 2)
	if fresh.idx != old.idx {
		t.Fatalf("expected slot reuse (old idx %d, fresh idx %d)", old.idx, fresh.idx)
	}
	if fresh.gen == old.gen {
		t.Fatal("recycled slot did not bump its generation")
	}
	if r.eng.Cancel(old) {
		t.Fatal("stale handle cancelled the slot's new tenant")
	}
	if got := r.eng.Reschedule(old, 9); got != (Handle{}) {
		t.Fatal("stale handle rescheduled the slot's new tenant")
	}
	r.eng.RunAll()
	if len(r.args) != 1 || r.args[0] != 2 {
		t.Fatalf("fired %v, want [2]", r.args)
	}
}

// TestPooledFiredSlotReusedDuringCallback checks the documented contract
// that the firing event's slot is released before its callback runs, so
// the callback's own Schedule can reuse it.
func TestPooledFiredSlotReusedDuringCallback(t *testing.T) {
	eng := NewPooled()
	var cb CallbackID
	var fromCallback Handle
	cb = eng.Register(func(arg int32) {
		if arg == 1 {
			fromCallback = eng.Schedule(5, cb, 2)
		}
	})
	h := eng.Schedule(1, cb, 1)
	eng.Step()
	if fromCallback.idx != h.idx {
		t.Fatalf("callback's event got slot %d, want the fired slot %d", fromCallback.idx, h.idx)
	}
	if eng.Cancel(h) {
		t.Fatal("fired handle cancelled the callback's event")
	}
	if !eng.Cancel(fromCallback) {
		t.Fatal("callback's own handle should be live")
	}
}

func TestPooledReschedule(t *testing.T) {
	r := newRecorder()
	var h Handle
	h = r.eng.Schedule(10, r.cb, 9)
	move := r.eng.Register(func(int32) { h = r.eng.Reschedule(h, 3) })
	r.eng.Schedule(1, move, 0)
	r.eng.RunAll()
	if len(r.when) != 1 || r.when[0] != 3 {
		t.Fatalf("rescheduled event fired at %v, want [3]", r.when)
	}
}

// TestPooledRescheduleInvalidatesOldHandle: Reschedule returns a new
// handle and kills the old one, even when the slot is reused in place.
func TestPooledRescheduleInvalidatesOldHandle(t *testing.T) {
	eng := NewPooled()
	cb := eng.Register(func(int32) {})
	old := eng.Schedule(5, cb, 0)
	fresh := eng.Reschedule(old, 8)
	if fresh == (Handle{}) {
		t.Fatal("reschedule of a live handle returned the zero Handle")
	}
	if eng.Cancel(old) {
		t.Fatal("old handle still live after Reschedule")
	}
	if !eng.Cancel(fresh) {
		t.Fatal("new handle not live after Reschedule")
	}
}

func TestPooledAfter(t *testing.T) {
	r := newRecorder()
	chain := r.eng.Register(func(int32) { r.eng.After(2, r.cb, 0) })
	r.eng.Schedule(4, chain, 0)
	r.eng.RunAll()
	if len(r.when) != 1 || r.when[0] != 6 {
		t.Fatalf("After fired at %v, want [6]", r.when)
	}
}

func TestPooledRunEmpty(t *testing.T) {
	eng := NewPooled()
	if eng.Step() {
		t.Fatal("Step on an empty engine returned true")
	}
	if fired := eng.RunAll(); fired != 0 {
		t.Fatalf("RunAll on empty engine fired %d", fired)
	}
}

func TestPooledPendingAndHighWater(t *testing.T) {
	eng := NewPooled()
	cb := eng.Register(func(int32) {})
	a := eng.Schedule(1, cb, 0)
	eng.Schedule(2, cb, 0)
	eng.Schedule(3, cb, 0)
	if eng.Pending() != 3 || eng.HighWater() != 3 {
		t.Fatalf("pending %d highwater %d, want 3/3", eng.Pending(), eng.HighWater())
	}
	eng.Cancel(a)
	if eng.Pending() != 2 || eng.HighWater() != 3 {
		t.Fatalf("pending %d highwater %d after cancel, want 2/3", eng.Pending(), eng.HighWater())
	}
	eng.RunAll()
	if eng.Pending() != 0 || eng.HighWater() != 3 {
		t.Fatalf("pending %d highwater %d after run, want 0/3", eng.Pending(), eng.HighWater())
	}
}

func TestPooledReset(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 5; i++ {
		r.eng.Schedule(float64(i+1), r.cb, int32(i))
	}
	r.eng.RunAll()
	r.eng.Reset()
	if r.eng.Now() != 0 || r.eng.Pending() != 0 || r.eng.HighWater() != 0 {
		t.Fatalf("Reset left now=%v pending=%d highwater=%d",
			r.eng.Now(), r.eng.Pending(), r.eng.HighWater())
	}
	// Callbacks survive Reset; the replay must behave like a fresh engine.
	r.args, r.when = nil, nil
	for i := 0; i < 5; i++ {
		r.eng.Schedule(float64(i+1), r.cb, int32(i))
	}
	r.eng.RunAll()
	if len(r.args) != 5 || r.when[4] != 5 {
		t.Fatalf("post-Reset replay fired %v at %v", r.args, r.when)
	}
}

func TestPooledSchedulePastPanics(t *testing.T) {
	r := newRecorder()
	r.eng.Schedule(5, r.cb, 0)
	r.eng.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	r.eng.Schedule(1, r.cb, 0)
}

// TestPooledNaNTimePanics checks every entry point rejects a NaN time:
// NaN compares false both ways, so it would pass a plain causality check
// and then fire out of order and leave the clock at NaN.
func TestPooledNaNTimePanics(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		op   func(r *recorder)
	}{
		{"Schedule", func(r *recorder) { r.eng.Schedule(nan, r.cb, 0) }},
		{"After", func(r *recorder) { r.eng.After(nan, r.cb, 0) }},
		{"ScheduleFIFO", func(r *recorder) { r.eng.ScheduleFIFO(nan, r.cb, 0) }},
		{"Reschedule", func(r *recorder) { r.eng.Reschedule(r.eng.Schedule(5, r.cb, 0), nan) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorder()
			r.eng.Schedule(1, r.cb, 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("scheduling at NaN did not panic")
					}
				}()
				tc.op(r)
			}()
			r.eng.RunAll()
			if math.IsNaN(r.eng.Now()) {
				t.Fatal("the clock reached NaN")
			}
		})
	}
}

func TestPooledUnregisteredCallbackPanics(t *testing.T) {
	eng := NewPooled()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling an unregistered callback did not panic")
		}
	}()
	eng.Schedule(1, CallbackID(0), 0)
}

func TestPooledNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a nil callback did not panic")
		}
	}()
	NewPooled().Register(nil)
}

// oracle is the reference model for the PooledEngine's contract: a
// slice of pending events kept sorted by (time, seq), with seq assigned
// by Schedule and Reschedule alike. Each event carries a fixed label (the
// callback argument) and a version that Reschedule bumps, so the oracle
// knows which handle to an event is current.
type oracle struct {
	seq     uint64
	pending []oracleEvent
	version map[int32]int
}

type oracleEvent struct {
	at    float64
	seq   uint64
	label int32
}

func (o *oracle) insert(at float64, label int32) {
	ev := oracleEvent{at, o.seq, label}
	o.seq++
	i := sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return ev.at < p.at || (ev.at <= p.at && ev.seq < p.seq)
	})
	o.pending = append(o.pending, oracleEvent{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = ev
}

// remove unlinks label's pending event.
func (o *oracle) remove(label int32) {
	for i, ev := range o.pending {
		if ev.label == label {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return
		}
	}
}

// live reports whether the handle at version ver of label is current.
func (o *oracle) live(label int32, ver int) bool {
	if o.version[label] != ver {
		return false
	}
	for _, ev := range o.pending {
		if ev.label == label {
			return true
		}
	}
	return false
}

// checkOracleScript drives a PooledEngine and the sorted-slice oracle
// through one script and reports whether they agree: identical firing
// sequences and identical handle staleness. intn(n) supplies the
// script's choices, each in [0, n). Event times snap to a coarse grid so
// exact-time ties, which only seq can order, are common, and most
// operations run inside callbacks while the engine is firing — the way
// queuesim and the testbed schedule, cancel and re-key departures and
// budget interrupts. ScheduleFIFO events (the timeouts' lane) interleave
// with pending-set events and are cancelled and rescheduled through the
// same handles; the oracle knows no lane. Each round starts with up to
// maxInit events, and several rounds share one engine across Reset so
// recycled slots are exercised too.
func checkOracleScript(t *testing.T, intn func(n int) int, rounds, maxInit int) bool {
	type handle struct {
		h     Handle
		label int32
		ver   int
	}
	eng := NewPooled()
	ok := true
	fail := func(format string, args ...any) {
		if ok {
			t.Logf(format, args...)
		}
		ok = false
	}
	var (
		o        oracle
		hs       []handle
		label    int32
		ops      int
		laneLast float64
		cb       CallbackID
		opBurst  func()
	)
	at := func() float64 { return eng.Now() + float64(intn(6))*0.5 }
	track := func(h Handle, when float64) {
		hs = append(hs, handle{h, label, 0})
		o.version[label] = 0
		o.insert(when, label)
		label++
	}
	schedule := func() {
		when := at()
		track(eng.Schedule(when, cb, label), when)
	}
	// scheduleFIFO keeps lane times non-decreasing, stepping by the same
	// coarse grid so lane events tie with pending-set events and with
	// each other.
	scheduleFIFO := func() {
		when := math.Max(eng.Now(), laneLast) + float64(intn(3))*0.5
		laneLast = when
		track(eng.ScheduleFIFO(when, cb, label), when)
	}
	opBurst = func() {
		for n := intn(4); n > 0 && ops < 400; n-- {
			ops++
			switch {
			case intn(4) == 0:
				scheduleFIFO()
			case intn(3) == 0 || len(hs) == 0:
				schedule()
			case intn(2) == 0:
				c := hs[intn(len(hs))]
				want := o.live(c.label, c.ver)
				if got := eng.Cancel(c.h); got != want {
					fail("cancel of label %d v%d returned %v, oracle %v", c.label, c.ver, got, want)
				}
				if want {
					o.remove(c.label)
				}
			default:
				c := hs[intn(len(hs))]
				want := o.live(c.label, c.ver)
				when := at()
				nh := eng.Reschedule(c.h, when)
				if (nh != Handle{}) != want {
					fail("reschedule of label %d v%d returned %v, oracle live %v", c.label, c.ver, nh, want)
				}
				if want {
					o.remove(c.label)
					o.version[c.label] = c.ver + 1
					o.insert(when, c.label)
					hs = append(hs, handle{nh, c.label, c.ver + 1})
				}
			}
			if eng.Pending() != len(o.pending) {
				fail("pending %d, oracle %d", eng.Pending(), len(o.pending))
			}
		}
	}
	cb = eng.Register(func(arg int32) {
		if len(o.pending) == 0 {
			fail("label %d fired at %v, oracle empty", arg, eng.Now())
			return
		}
		want := o.pending[0]
		o.pending = o.pending[1:]
		if want.label != arg || want.at != eng.Now() {
			fail("fired label %d at %v, oracle label %d at %v", arg, eng.Now(), want.label, want.at)
		}
		opBurst()
	})
	for round := 0; round < rounds; round++ {
		eng.Reset()
		o = oracle{version: map[int32]int{}}
		hs, label, ops, laneLast = hs[:0], 0, 0, 0
		for i, n := 0, 1+intn(maxInit); i < n; i++ {
			if intn(2) == 0 {
				scheduleFIFO()
			} else {
				schedule()
			}
		}
		opBurst()
		eng.RunAll()
		if len(o.pending) != 0 || eng.Pending() != 0 {
			fail("round %d drained with %d oracle / %d engine pending", round, len(o.pending), eng.Pending())
		}
		// Every handle is stale once the engine has drained.
		for _, c := range hs {
			if eng.Cancel(c.h) || eng.Reschedule(c.h, eng.Now()) != (Handle{}) {
				fail("label %d v%d handle live after drain", c.label, c.ver)
			}
		}
	}
	return ok
}

// TestPooledMatchesSortedOracle runs checkOracleScript over random
// scripts of up to 12 initial events, three Reset rounds each.
func TestPooledMatchesSortedOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		if !checkOracleScript(t, rng.Intn, 3, 12) {
			t.Logf("seed %#x diverged", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPooledEngine runs checkOracleScript on scripts read from the fuzz
// input, two bytes per choice (zero once the input runs out, which
// drains the engine). Its first choice sets the number of Reset rounds
// (one to three); each round starts with up to 256 events, so the
// pending set is exercised at every depth the scan sees in production
// and beyond.
func FuzzPooledEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 11, 0, 1, 0, 3, 0, 2, 0, 5, 0, 1, 0, 0, 0, 3, 0, 1, 0, 2})
	f.Add([]byte{0, 1, 0, 255, 1, 3, 2, 7, 0, 1, 5, 9, 0, 4, 3, 3, 1, 8, 0, 2, 6, 6, 2, 1})
	deep := []byte{0, 0, 0, 255}
	for i := 0; i < 512; i++ {
		deep = append(deep, byte(i), byte(i*7+3))
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, script []byte) {
		intn := func(n int) int {
			if len(script) < 2 {
				script = nil
				return 0
			}
			v := int(script[0])<<8 | int(script[1])
			script = script[2:]
			return v % n
		}
		if !checkOracleScript(t, intn, 1+intn(3), 256) {
			t.Fatal("engine diverged from the sorted oracle")
		}
	})
}

// TestPooledLaneTiesFireBySeq interleaves same-time heap and FIFO-lane
// events: whichever was scheduled first fires first.
func TestPooledLaneTiesFireBySeq(t *testing.T) {
	r := newRecorder()
	r.eng.Schedule(5, r.cb, 0)
	r.eng.ScheduleFIFO(5, r.cb, 1)
	r.eng.Schedule(5, r.cb, 2)
	r.eng.ScheduleFIFO(5, r.cb, 3)
	r.eng.ScheduleFIFO(5, r.cb, 4)
	r.eng.Schedule(4, r.cb, 5)
	r.eng.Schedule(5, r.cb, 6)
	r.eng.RunAll()
	want := []int32{5, 0, 1, 2, 3, 4, 6}
	if fmt.Sprint(r.args) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", r.args, want)
	}
}

// TestPooledLaneCancel cancels FIFO-lane events at the head, in the
// middle and at the tail, then checks the stale handles of the slots
// reused afterwards cannot reach their new tenants.
func TestPooledLaneCancel(t *testing.T) {
	r := newRecorder()
	var hs []Handle
	for i := 0; i < 6; i++ {
		hs = append(hs, r.eng.ScheduleFIFO(float64(i+1), r.cb, int32(i)))
	}
	for _, i := range []int{0, 3, 5} {
		if !r.eng.Cancel(hs[i]) {
			t.Fatalf("cancel of live lane event %d returned false", i)
		}
		if r.eng.Cancel(hs[i]) {
			t.Fatalf("second cancel of lane event %d returned true", i)
		}
	}
	// The freed slots go to new tenants, in the heap and in the lane.
	fresh := r.eng.Schedule(2.5, r.cb, 10)
	lane := r.eng.ScheduleFIFO(7, r.cb, 11)
	for _, i := range []int{0, 3, 5} {
		if r.eng.Cancel(hs[i]) || r.eng.Reschedule(hs[i], 9) != (Handle{}) {
			t.Fatalf("stale lane handle %d reached a reused slot", i)
		}
	}
	if r.eng.Pending() != 5 {
		t.Fatalf("pending %d, want 5", r.eng.Pending())
	}
	r.eng.RunAll()
	want := []int32{1, 10, 2, 4, 11}
	if fmt.Sprint(r.args) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", r.args, want)
	}
	if r.eng.Cancel(fresh) || r.eng.Cancel(lane) {
		t.Fatal("fired handles still live")
	}
}

// TestPooledLaneReschedule moves a FIFO-lane event, earlier and later:
// it fires as Cancel followed by Schedule would make it fire, and the
// lane keeps its order for the events left in it.
func TestPooledLaneReschedule(t *testing.T) {
	r := newRecorder()
	a := r.eng.ScheduleFIFO(5, r.cb, 0)
	r.eng.ScheduleFIFO(6, r.cb, 1)
	b := r.eng.ScheduleFIFO(7, r.cb, 2)
	r.eng.Schedule(6, r.cb, 3)
	na := r.eng.Reschedule(a, 6) // ties with 1 and 3, but scheduled last
	nb := r.eng.Reschedule(b, 2)
	if na == (Handle{}) || nb == (Handle{}) {
		t.Fatal("reschedule of a live lane event returned the zero Handle")
	}
	if r.eng.Cancel(a) || r.eng.Cancel(b) {
		t.Fatal("lane handle live after Reschedule")
	}
	if r.eng.Pending() != 4 {
		t.Fatalf("pending %d, want 4", r.eng.Pending())
	}
	r.eng.ScheduleFIFO(8, r.cb, 4)
	r.eng.RunAll()
	want := []int32{2, 1, 3, 0, 4}
	if fmt.Sprint(r.args) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", r.args, want)
	}
}

// TestPooledLaneCompacts arms timeouts far beyond every departure, as a
// huge sprint timeout does: each is cancelled long before the lane head
// reaches it, so only compaction can drop them, and the lane must stay
// sized to the live events rather than to every event ever queued.
func TestPooledLaneCompacts(t *testing.T) {
	eng := NewPooled()
	cb := eng.Register(func(int32) {})
	var live [3]Handle
	for i := 0; i < 10000; i++ {
		at := float64(i)
		eng.Cancel(live[i%len(live)])
		live[i%len(live)] = eng.ScheduleFIFO(at+1e9, cb, int32(i))
		eng.Schedule(at, cb, 0)
		eng.Step()
	}
	if eng.Pending() != len(live) {
		t.Fatalf("pending %d, want %d", eng.Pending(), len(live))
	}
	if cap(eng.lane) > 16 {
		t.Fatalf("lane grew to %d entries for %d live events", cap(eng.lane), len(live))
	}
	if n := eng.RunAll(); n != len(live) {
		t.Fatalf("drain fired %d, want %d", n, len(live))
	}
}

func TestPooledLaneOutOfOrderPanics(t *testing.T) {
	r := newRecorder()
	h := r.eng.ScheduleFIFO(5, r.cb, 0)
	r.eng.Cancel(h) // a cancelled event still sets the lane's order
	r.eng.Schedule(1, r.cb, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a FIFO event before the previous one did not panic")
		}
	}()
	r.eng.ScheduleFIFO(4, r.cb, 2)
}

// TestPooledLaneReset checks Reset empties the lane and its order: a
// replay may start its FIFO events from zero again.
func TestPooledLaneReset(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 4; i++ {
		r.eng.ScheduleFIFO(float64(10+i), r.cb, int32(i))
	}
	r.eng.Step()
	r.eng.Reset()
	if r.eng.Pending() != 0 || r.eng.HighWater() != 0 {
		t.Fatalf("Reset left pending=%d highwater=%d", r.eng.Pending(), r.eng.HighWater())
	}
	if r.eng.Step() {
		t.Fatal("a lane event survived Reset")
	}
	r.args, r.when = nil, nil
	r.eng.ScheduleFIFO(1, r.cb, 7)
	r.eng.Schedule(0.5, r.cb, 8)
	r.eng.RunAll()
	if fmt.Sprint(r.args) != "[8 7]" {
		t.Fatalf("post-Reset replay fired %v, want [8 7]", r.args)
	}
}

// TestPooledLanePending counts live lane events: scheduled ones, less
// cancelled, fired and rescheduled-away ones (a rescheduled event is
// still pending, in the heap).
func TestPooledLanePending(t *testing.T) {
	eng := NewPooled()
	cb := eng.Register(func(int32) {})
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, eng.ScheduleFIFO(float64(i+1), cb, 0))
	}
	eng.Schedule(0.5, cb, 0)
	if eng.Pending() != 6 {
		t.Fatalf("pending %d, want 6", eng.Pending())
	}
	eng.Cancel(hs[2])
	eng.Cancel(hs[2])
	if eng.Pending() != 5 {
		t.Fatalf("pending %d after cancel, want 5", eng.Pending())
	}
	eng.Reschedule(hs[4], 9)
	if eng.Pending() != 5 {
		t.Fatalf("pending %d after reschedule, want 5", eng.Pending())
	}
	eng.Step()
	eng.Step()
	if eng.Pending() != 3 {
		t.Fatalf("pending %d after two steps, want 3", eng.Pending())
	}
	eng.RunAll()
	if eng.Pending() != 0 {
		t.Fatalf("pending %d after run, want 0", eng.Pending())
	}
}

// TestPooledZeroAllocsSteadyState pins the engine-level allocation
// budget: once the slab has grown to its working size, a
// schedule/cancel/reschedule/fire cycle allocates nothing.
func TestPooledZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	eng := NewPooled()
	cb := eng.Register(func(int32) {})
	hs := make([]Handle, 64)
	cycle := func() {
		eng.Reset()
		for i := range hs {
			hs[i] = eng.Schedule(float64(i), cb, int32(i))
		}
		for i := 0; i < 16; i++ {
			eng.Cancel(hs[i*3])
		}
		for i := 0; i < 16; i++ {
			hs[i*2+1] = eng.Reschedule(hs[i*2+1], float64(100+i))
		}
		eng.RunAll()
	}
	cycle() // warm the slab
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state engine cycle allocated %.1f objects, want 0", allocs)
	}
}

// TestPooledLaneZeroAllocsSteadyState is the same budget with FIFO-lane
// traffic the way queuesim drives it: every arrival arms a timeout in
// the lane, most timeouts are cancelled before they fire, and some fire.
func TestPooledLaneZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	eng := NewPooled()
	var timeouts [64]Handle
	var cbArrive, cbDepart CallbackID
	fired := 0
	cbTimeout := eng.Register(func(int32) { fired++ })
	cbArrive = eng.Register(func(arg int32) {
		timeouts[arg] = eng.ScheduleFIFO(eng.Now()+3, cbTimeout, arg)
		eng.After(float64(arg%7)*0.6, cbDepart, arg)
		if arg+1 < int32(len(timeouts)) {
			eng.After(1, cbArrive, arg+1)
		}
	})
	cbDepart = eng.Register(func(arg int32) { eng.Cancel(timeouts[arg]) })
	cycle := func() {
		eng.Reset()
		eng.Schedule(0, cbArrive, 0)
		eng.RunAll()
	}
	cycle() // warm the slab and the lane
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state lane cycle allocated %.1f objects, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no timeout fired; the cycle should exercise both lane outcomes")
	}
}

// BenchmarkPooledEngine times the PooledEngine at pending-set depths
// from what queuesim and the testbed hold per server (2-4 events) up to
// what `sprintctl disciplines -servers N` reaches with many servers
// (64-256). Each iteration fires the earliest event and schedules its
// replacement, re-keys another event in place, and cancels and replaces
// a third, so the pending set stays at the depth.
func BenchmarkPooledEngine(b *testing.B) {
	for _, depth := range []int{2, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := NewPooled()
			var fired int32
			cb := eng.Register(func(arg int32) { fired = arg })
			r := dist.NewRNG(1)
			delays := make([]float64, 1024)
			for i := range delays {
				delays[i] = r.ExpFloat64()
			}
			hs := make([]Handle, depth)
			for i := range hs {
				hs[i] = eng.After(delays[i], cb, int32(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
				hs[fired] = eng.After(delays[i&1023], cb, fired)
				j := (int(fired) + 1) % depth
				hs[j] = eng.Reschedule(hs[j], eng.Now()+delays[(i+3)&1023])
				k := (int(fired) + depth - 1) % depth
				eng.Cancel(hs[k])
				hs[k] = eng.After(delays[(i+7)&1023], cb, int32(k))
			}
			if eng.Pending() != depth {
				b.Fatalf("pending %d, want %d", eng.Pending(), depth)
			}
		})
	}
}
