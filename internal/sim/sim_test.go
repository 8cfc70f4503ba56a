package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mdsprint/internal/dist"
)

// Tests whose names start with TestPooled were written for the pooled
// event engine this package used to hold; each now checks the same
// property of the Key order, the Clock and the Lane that replaced it.

// harness drives the package the way queuesim and the testbed do:
// typed events held as keys (Never when unset), timers in a lane, and a
// step that fires the earliest by Key.Before, clearing the fired event
// before its handler runs. Typed event i fires as label i, a lane timer
// as its id.
type harness struct {
	clk    Clock
	lane   Lane
	evs    []Key
	onFire func(label int32) // the handler; nil records only
	fired  []int32
	when   []float64
}

// schedule keys typed event label at time t, re-keying it if set.
func (h *harness) schedule(label int, t float64) {
	for len(h.evs) <= label {
		h.evs = append(h.evs, Never)
	}
	h.evs[label] = h.clk.At(t)
}

// arm pushes a lane timer for id in slot at time t.
func (h *harness) arm(t float64, slot, id int32) { h.lane.Push(h.clk.At(t), slot, id) }

// pending counts set typed events and armed timers.
func (h *harness) pending() int {
	n := h.lane.Len()
	for _, k := range h.evs {
		if k.Before(Never) {
			n++
		}
	}
	return n
}

func (h *harness) step() bool {
	next, at, lane := Never, -1, false
	if h.lane.Len() > 0 {
		if f := h.lane.Front(); f.Before(next) {
			next, lane = f.Key, true
		}
	}
	for i, k := range h.evs {
		if k.Before(next) {
			next, at, lane = k, i, false
		}
	}
	if at < 0 && !lane {
		return false
	}
	h.clk.Fire(next)
	label := int32(at)
	if lane {
		label = h.lane.Pop().ID
	} else {
		h.evs[at] = Never
	}
	h.fired = append(h.fired, label)
	h.when = append(h.when, h.clk.Now())
	if h.onFire != nil {
		h.onFire(label)
	}
	return true
}

func (h *harness) runAll() int {
	n := 0
	for h.step() {
		n++
	}
	return n
}

func TestPooledFiresInTimeOrder(t *testing.T) {
	var h harness
	for i, at := range []float64{5, 1, 3, 2, 4} {
		h.schedule(i, at)
	}
	h.runAll()
	if !sort.Float64sAreSorted(h.when) {
		t.Fatalf("events fired out of order: %v", h.when)
	}
	if len(h.fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(h.fired))
	}
}

func TestPooledSameTimeFIFO(t *testing.T) {
	var h harness
	for i := 0; i < 10; i++ {
		h.schedule(i, 7)
	}
	h.runAll()
	for i, v := range h.fired {
		if v != int32(i) {
			t.Fatalf("same-time events not FIFO: %v", h.fired)
		}
	}
}

// TestPooledSameTimeFIFOAfterChurn repeats the FIFO-tie check on a lane
// whose slots have been cancelled and re-armed out of order, so slot
// numbers no longer correlate with scheduling order: the seqs, not the
// slots, must carry the ordering.
func TestPooledSameTimeFIFOAfterChurn(t *testing.T) {
	var h harness
	for i := int32(0); i < 16; i++ {
		h.arm(1, i, 100+i)
	}
	for _, i := range []int32{3, 11, 0, 7, 15, 4, 8, 1} {
		if !h.lane.Cancel(i) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	// Re-arm the freed slots, most recently freed first, then new ones.
	for i, slot := range []int32{1, 8, 4, 15, 7, 0, 11, 3, 16, 17} {
		h.arm(2, slot, int32(i))
	}
	h.runAll()
	want := []int32{102, 105, 106, 109, 110, 112, 113, 114, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if fmt.Sprint(h.fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", h.fired, want)
	}
}

func TestPooledCancelPreventsFiring(t *testing.T) {
	var h harness
	h.arm(1, 0, 1)
	h.arm(2, 1, 2)
	if !h.lane.Cancel(0) {
		t.Fatal("cancel of an armed timer returned false")
	}
	if h.lane.Cancel(0) {
		t.Fatal("second cancel of the same slot returned true")
	}
	h.runAll()
	if fmt.Sprint(h.fired) != "[2]" {
		t.Fatalf("fired %v, want [2]", h.fired)
	}
}

// TestPooledZeroHandleStale checks the unset states: Never fires after
// every key, one at +Inf included, and cancelling a slot that holds no
// timer, or one the lane has never seen, is a no-op.
func TestPooledZeroHandleStale(t *testing.T) {
	var c Clock
	if Never.Before(Never) {
		t.Fatal("Never fires before itself")
	}
	if k := c.At(math.Inf(1)); !k.Before(Never) || Never.Before(k) {
		t.Fatal("an event at +Inf does not fire before Never")
	}
	var l Lane
	l.Push(c.At(1), 2, 0)
	if l.Cancel(0) || l.Cancel(99) {
		t.Fatal("cancelling an unarmed slot returned true")
	}
	if l.Len() != 1 {
		t.Fatalf("len %d after no-op cancels, want 1", l.Len())
	}
}

// TestPooledCancelAfterFire checks a fired timer's slot forgets it the
// moment it fires: cancelling the slot then is a no-op.
func TestPooledCancelAfterFire(t *testing.T) {
	var h harness
	h.arm(1, 0, 1)
	h.runAll()
	if h.lane.Cancel(0) {
		t.Fatal("cancelling a fired timer's slot returned true")
	}
	if h.lane.Len() != 0 {
		t.Fatalf("len %d after a stale cancel, want 0", h.lane.Len())
	}
}

// TestPooledStaleHandleRecycledSlot is the recycled-slot regression
// test: a query's timer left in the lane when its slot passes to another
// query must never fire, whether the slot's new query has armed its own
// timer or not.
func TestPooledStaleHandleRecycledSlot(t *testing.T) {
	var h harness
	h.arm(1, 0, 1)
	h.arm(1, 1, 2)
	h.lane.Cancel(0) // query 1 departs; its entry stays in the lane
	h.lane.Cancel(1) // so does query 2's
	h.arm(3, 0, 3)   // query 3 takes slot 0 and arms its own timer
	if h.lane.Len() != 1 {
		t.Fatalf("len %d, want 1", h.lane.Len())
	}
	h.runAll()
	if fmt.Sprint(h.fired) != "[3]" {
		t.Fatalf("fired %v, want [3]", h.fired)
	}
}

// TestPooledFiredSlotReusedDuringCallback checks a fired timer's slot
// is free by the time its handler runs, so the handler can arm the slot
// again.
func TestPooledFiredSlotReusedDuringCallback(t *testing.T) {
	var h harness
	h.onFire = func(label int32) {
		if label == 1 {
			h.arm(5, 0, 2)
		}
	}
	h.arm(1, 0, 1)
	h.step()
	if h.lane.Len() != 1 {
		t.Fatalf("len %d after the handler re-armed the slot, want 1", h.lane.Len())
	}
	if h.lane.Front().ID != 2 {
		t.Fatalf("front is query %d, want 2", h.lane.Front().ID)
	}
	if !h.lane.Cancel(0) {
		t.Fatal("the handler's timer should be armed")
	}
}

func TestPooledReschedule(t *testing.T) {
	var h harness
	h.schedule(1, 10)
	h.onFire = func(label int32) {
		if label == 0 {
			h.schedule(1, 3) // re-key event 1 from its handler
		}
	}
	h.schedule(0, 1)
	h.runAll()
	if fmt.Sprint(h.fired, h.when) != "[0 1] [1 3]" {
		t.Fatalf("fired %v at %v, want [0 1] at [1 3]", h.fired, h.when)
	}
}

// TestPooledRescheduleInvalidatesOldHandle checks a re-keyed event takes
// a fresh seq: it fires after every event already keyed at its new time,
// as cancelling it and scheduling it anew would make it fire.
func TestPooledRescheduleInvalidatesOldHandle(t *testing.T) {
	var h harness
	h.schedule(0, 5)
	h.schedule(1, 8)
	h.schedule(2, 8)
	old := h.evs[0]
	h.schedule(0, 8)
	if h.evs[0] == old || !old.Before(h.evs[0]) {
		t.Fatalf("re-key kept key %v, want a later one than %v", h.evs[0], old)
	}
	h.runAll()
	if fmt.Sprint(h.fired) != "[1 2 0]" {
		t.Fatalf("fired %v, want [1 2 0]", h.fired)
	}
}

func TestPooledAfter(t *testing.T) {
	var h harness
	h.onFire = func(label int32) {
		if label == 0 {
			h.evs[1] = h.clk.After(2)
		}
	}
	h.schedule(0, 4)
	h.schedule(1, 100) // re-keyed earlier by After
	h.runAll()
	if fmt.Sprint(h.when) != "[4 6]" {
		t.Fatalf("fired at %v, want [4 6]", h.when)
	}
}

func TestPooledRunEmpty(t *testing.T) {
	var h harness
	if h.step() {
		t.Fatal("step with nothing pending returned true")
	}
	h.schedule(0, 1)
	h.evs[0] = Never // unset
	if fired := h.runAll(); fired != 0 {
		t.Fatalf("an unset event fired (%d)", fired)
	}
}

// TestPooledPendingAndHighWater counts armed timers through arming,
// cancelling and firing, and checks the lane's per-slot table is sized
// by the highest slot armed.
func TestPooledPendingAndHighWater(t *testing.T) {
	var h harness
	h.arm(1, 0, 0)
	h.arm(2, 5, 1)
	h.arm(3, 2, 2)
	if h.lane.Len() != 3 || len(h.lane.armed) != 6 {
		t.Fatalf("len %d slots %d, want 3/6", h.lane.Len(), len(h.lane.armed))
	}
	h.lane.Cancel(0)
	if h.lane.Len() != 2 {
		t.Fatalf("len %d after cancel, want 2", h.lane.Len())
	}
	h.runAll()
	if h.lane.Len() != 0 || len(h.lane.armed) != 6 {
		t.Fatalf("len %d slots %d after run, want 0/6", h.lane.Len(), len(h.lane.armed))
	}
}

func TestPooledReset(t *testing.T) {
	var h harness
	for i := 0; i < 5; i++ {
		h.schedule(i, float64(i+1))
		h.arm(float64(i+1), int32(i), int32(10+i))
	}
	h.step()
	h.clk.Reset()
	h.lane.Reset()
	if h.clk.Now() != 0 || h.lane.Len() != 0 {
		t.Fatalf("Reset left now=%v len=%d", h.clk.Now(), h.lane.Len())
	}
	if k := h.clk.At(0); k.Seq != 0 {
		t.Fatalf("first seq after Reset is %d, want 0", k.Seq)
	}
	// The replay must behave like a fresh run; every slot is free again.
	h.clk.Reset()
	h.evs, h.fired, h.when = nil, nil, nil
	for i := 0; i < 5; i++ {
		h.schedule(i, float64(i+1))
		h.arm(float64(i+1), int32(i), int32(10+i))
	}
	h.runAll()
	if fmt.Sprint(h.fired) != "[0 10 1 11 2 12 3 13 4 14]" || h.when[9] != 5 {
		t.Fatalf("post-Reset replay fired %v at %v", h.fired, h.when)
	}
}

func TestPooledSchedulePastPanics(t *testing.T) {
	var h harness
	h.schedule(0, 5)
	h.runAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	h.schedule(0, 1)
}

// TestClockAtPanics checks At and After refuse a NaN time and a time
// before Now. NaN compares false both ways, so it would pass a plain
// causality check and then fire out of order and leave the clock at
// NaN. Re-keying an event and arming a lane timer both take their keys
// from At.
func TestClockAtPanics(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		op   func(c *Clock)
	}{
		{"NaN", func(c *Clock) { c.At(nan) }},
		{"NaNAfter", func(c *Clock) { c.After(nan) }},
		{"Past", func(c *Clock) { c.At(1) }},
		{"PastAfter", func(c *Clock) { c.After(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Clock
			c.Fire(c.At(2))
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("At did not panic")
					}
				}()
				tc.op(&c)
			}()
			if k := c.At(2); k.Seq != 1 {
				t.Fatalf("a refused time took a seq: next seq %d, want 1", k.Seq)
			}
		})
	}
}

// checkOracleScript drives the harness and a sorted-slice oracle through
// one script and reports whether they agree on the firing sequence.
// intn(n) supplies the script's choices, each in [0, n). Times snap to a
// coarse grid so exact-time ties, which only seq can order, are common,
// and most operations run inside handlers while the harness is firing,
// the way queuesim and the testbed schedule, cancel and re-key
// departures and budget interrupts. Lane timers, armed in time order for
// a handful of slots under fresh ids, interleave with the typed events;
// the oracle knows no lane. Each round starts with up to maxInit events,
// and several rounds share one harness across Reset.
func checkOracleScript(t *testing.T, intn func(n int) int, rounds, maxInit int) bool {
	// oracle holds the pending events sorted by (time, seq); typed event
	// i is label i, the timer of lane slot s is label laneBase+s.
	type oev struct {
		at    float64
		seq   uint64
		label int32
	}
	const typed, slots, laneBase = 8, 4, 100
	var (
		h        harness
		pend     []oev
		seq      uint64
		ops      int
		nextID   int32
		laneLast float64
		ids      [slots]int32
	)
	ok := true
	fail := func(format string, args ...any) {
		if ok {
			t.Logf(format, args...)
		}
		ok = false
	}
	remove := func(label int32) bool {
		for i, ev := range pend {
			if ev.label == label {
				pend = append(pend[:i], pend[i+1:]...)
				return true
			}
		}
		return false
	}
	insert := func(at float64, label int32) {
		ev := oev{at, seq, label}
		seq++
		i := sort.Search(len(pend), func(i int) bool {
			p := pend[i]
			return ev.at < p.at || ev.at <= p.at && ev.seq < p.seq
		})
		pend = append(pend, oev{})
		copy(pend[i+1:], pend[i:])
		pend[i] = ev
	}
	at := func() float64 { return h.clk.Now() + float64(intn(6))*0.5 }
	opBurst := func() {
		for n := intn(4); n > 0 && ops < 400; n-- {
			ops++
			switch s := int32(intn(slots)); {
			case intn(3) == 0: // arm slot s, cancelling its timer first
				h.lane.Cancel(s)
				remove(laneBase + s)
				when := math.Max(h.clk.Now(), laneLast) + float64(intn(3))*0.5
				laneLast = when
				ids[s] = nextID
				nextID++
				h.arm(when, s, ids[s])
				insert(when, laneBase+s)
			case intn(4) == 0: // cancel slot s's timer
				if got, want := h.lane.Cancel(s), remove(laneBase+s); got != want {
					fail("cancel of slot %d returned %v, oracle %v", s, got, want)
				}
			case intn(3) == 0: // unset a typed event
				i := intn(typed)
				if i < len(h.evs) {
					h.evs[i] = Never
				}
				remove(int32(i))
			default: // schedule or re-key a typed event
				i, when := intn(typed), at()
				h.schedule(i, when)
				remove(int32(i))
				insert(when, int32(i))
			}
			if h.pending() != len(pend) {
				fail("pending %d, oracle %d", h.pending(), len(pend))
			}
		}
	}
	h.onFire = func(label int32) {
		if len(pend) == 0 {
			fail("label %d fired at %v, oracle empty", label, h.clk.Now())
			return
		}
		want := pend[0]
		pend = pend[1:]
		if want.label >= laneBase {
			if id := ids[want.label-laneBase]; id != label {
				fail("fired timer %d at %v, oracle timer %d at %v", label, h.clk.Now(), id, want.at)
			}
		} else if want.label != label {
			fail("fired event %d at %v, oracle label %d at %v", label, h.clk.Now(), want.label, want.at)
		}
		if want.at != h.clk.Now() {
			fail("fired at %v, oracle at %v", h.clk.Now(), want.at)
		}
		opBurst()
	}
	for round := 0; round < rounds; round++ {
		h.clk.Reset()
		h.lane.Reset()
		h.evs = h.evs[:0]
		pend, seq, ops, laneLast = pend[:0], 0, 0, 0
		for i, n := 0, 1+intn(maxInit); i < n; i++ {
			opBurst()
		}
		h.runAll()
		if len(pend) != 0 || h.pending() != 0 {
			fail("round %d drained with %d oracle / %d pending", round, len(pend), h.pending())
		}
	}
	return ok
}

// TestKeyOrderMatchesSortedOracle runs checkOracleScript over random
// scripts of up to 12 initial bursts, three Reset rounds each: events
// fire in (time, seq) order, whether typed or in the lane, keyed
// before or during the run.
func TestKeyOrderMatchesSortedOracle(t *testing.T) {
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

// FuzzLane checks the lane against a list of its armed timers in the
// order they were armed, on scripts read from the fuzz input, one byte
// per choice (zero once the input runs out). Timers are armed in time
// order for up to 16 slots under fresh ids, cancelled, fired off the
// front and dropped by Reset; the front must be the oldest armed timer,
// Len and Cancel must agree with the list, and right after a cancel
// that disarms a timer at most half of the stored entries may be dead,
// which is the compaction rule.
func FuzzLane(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 3, 1, 1, 2, 0, 0, 5, 1, 3, 2, 2, 3, 0, 1, 4})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 1, 2, 0, 4, 2, 9, 3, 1, 0, 7})
	churn := []byte{}
	for i := 0; i < 600; i++ {
		churn = append(churn, byte(i%3), byte(i*7+3))
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func(n int) int {
			if len(script) == 0 {
				return 0
			}
			v := int(script[0])
			script = script[1:]
			return v % n
		}
		var (
			c    Clock
			l    Lane
			live []LaneEntry // armed timers, in arming order
			id   int32
		)
		armed := func(slot int32) int {
			for i, e := range live {
				if e.Slot == slot {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 2000 && len(script) > 0; op++ {
			switch next(8) {
			case 0, 1, 2: // arm a free slot
				slot := int32(next(16))
				if armed(slot) >= 0 {
					continue
				}
				k := c.At(math.Max(c.Now(), l.last) + float64(next(3))*0.5)
				l.Push(k, slot, id)
				live = append(live, LaneEntry{Key: k, Slot: slot, ID: id})
				id++
			case 3, 4: // cancel a slot
				slot := int32(next(16))
				i := armed(slot)
				if got := l.Cancel(slot); got != (i >= 0) {
					t.Fatalf("cancel of slot %d returned %v, armed %v", slot, got, i >= 0)
				}
				if i < 0 {
					continue
				}
				live = append(live[:i], live[i+1:]...)
				if stored := len(l.ents) - l.head; stored > 2*l.live {
					t.Fatalf("after a cancel %d entries stored for %d armed", stored, l.live)
				}
			case 5, 6: // fire the front
				if len(live) == 0 {
					continue
				}
				if got := l.Front(); got != live[0] {
					t.Fatalf("front %+v, want %+v", got, live[0])
				}
				c.Fire(l.Pop().Key)
				live = live[1:]
			default:
				c.Reset()
				l.Reset()
				live = live[:0]
			}
			if l.Len() != len(live) {
				t.Fatalf("len %d, want %d", l.Len(), len(live))
			}
		}
	})
}

// TestPooledLaneTiesFireBySeq interleaves same-time typed events and
// lane timers: whichever was keyed first fires first.
func TestPooledLaneTiesFireBySeq(t *testing.T) {
	var h harness
	h.schedule(0, 5)
	h.arm(5, 0, 101)
	h.schedule(2, 5)
	h.arm(5, 1, 103)
	h.arm(5, 2, 104)
	h.schedule(5, 4)
	h.schedule(6, 5)
	h.runAll()
	want := []int32{5, 0, 101, 2, 103, 104, 6}
	if fmt.Sprint(h.fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", h.fired, want)
	}
}

// TestPooledLaneCancel cancels lane timers at the head, in the middle
// and at the tail, then re-arms the freed slots for new queries, whose
// timers alone fire.
func TestPooledLaneCancel(t *testing.T) {
	var h harness
	for i := int32(0); i < 6; i++ {
		h.arm(float64(i+1), i, i)
	}
	for _, i := range []int32{0, 3, 5} {
		if !h.lane.Cancel(i) {
			t.Fatalf("cancel of armed slot %d returned false", i)
		}
		if h.lane.Cancel(i) {
			t.Fatalf("second cancel of slot %d returned true", i)
		}
	}
	h.schedule(10, 2.5)
	h.arm(7, 0, 11)
	if h.pending() != 5 {
		t.Fatalf("pending %d, want 5", h.pending())
	}
	h.runAll()
	want := []int32{1, 10, 2, 4, 11}
	if fmt.Sprint(h.fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", h.fired, want)
	}
	if h.lane.Cancel(0) || h.lane.Cancel(1) {
		t.Fatal("fired timers' slots still armed")
	}
}

// TestPooledLaneReschedule cancels a lane timer and arms its slot again
// later: it fires where the new timer's key puts it, after the
// same-time events keyed before it, and the other timers keep their
// order.
func TestPooledLaneReschedule(t *testing.T) {
	var h harness
	h.arm(5, 0, 100)
	h.arm(6, 1, 101)
	h.schedule(3, 6)
	h.lane.Cancel(0)
	h.arm(6, 0, 102) // ties with 101 and event 3, but keyed last
	if h.pending() != 3 {
		t.Fatalf("pending %d, want 3", h.pending())
	}
	h.arm(8, 2, 104)
	h.runAll()
	want := []int32{101, 3, 102, 104}
	if fmt.Sprint(h.fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", h.fired, want)
	}
}

// TestPooledLaneCompacts arms timeouts far beyond every departure, as a
// huge sprint timeout does: each is cancelled long before the lane head
// reaches it, so only compaction can drop them, and the lane must stay
// sized to the armed timers rather than to every timer ever armed.
func TestPooledLaneCompacts(t *testing.T) {
	var h harness
	const live = 3
	for i := 0; i < 10000; i++ {
		at := float64(i)
		h.lane.Cancel(int32(i % live))
		h.arm(at+1e9, int32(i%live), int32(i))
		h.schedule(0, at)
		h.step()
	}
	if h.lane.Len() != live {
		t.Fatalf("len %d, want %d", h.lane.Len(), live)
	}
	if cap(h.lane.ents) > 16 {
		t.Fatalf("lane grew to %d entries for %d armed timers", cap(h.lane.ents), live)
	}
	if n := h.runAll(); n != live {
		t.Fatalf("drain fired %d, want %d", n, live)
	}
}

func TestPooledLaneOutOfOrderPanics(t *testing.T) {
	var h harness
	h.arm(5, 0, 0)
	h.lane.Cancel(0) // a cancelled timer still sets the lane's order
	defer func() {
		if recover() == nil {
			t.Fatal("a timer before the previous one did not panic")
		}
	}()
	h.arm(4, 1, 1)
}

// TestLaneDoubleArmPanics checks a slot holds one timer at a time:
// arming it again before its timer fires or is cancelled would leave
// the first entry counted as armed forever.
func TestLaneDoubleArmPanics(t *testing.T) {
	var h harness
	h.arm(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("arming an armed slot did not panic")
		}
	}()
	h.arm(2, 0, 1)
}

// TestPooledLaneReset checks Reset empties the lane and its order: a
// replay may arm its timers from time zero again.
func TestPooledLaneReset(t *testing.T) {
	var h harness
	for i := int32(0); i < 4; i++ {
		h.arm(float64(10+i), i, i)
	}
	h.step()
	h.clk.Reset()
	h.lane.Reset()
	if h.lane.Len() != 0 {
		t.Fatalf("Reset left len=%d", h.lane.Len())
	}
	if h.step() {
		t.Fatal("a lane timer survived Reset")
	}
	h.fired, h.when = nil, nil
	h.arm(1, 3, 7)
	h.schedule(8, 0.5)
	h.runAll()
	if fmt.Sprint(h.fired) != "[8 7]" {
		t.Fatalf("post-Reset replay fired %v, want [8 7]", h.fired)
	}
}

// TestPooledLanePending counts armed timers: armed ones, less cancelled
// and fired ones.
func TestPooledLanePending(t *testing.T) {
	var h harness
	for i := int32(0); i < 5; i++ {
		h.arm(float64(i+1), i, i)
	}
	h.schedule(0, 0.5)
	if h.pending() != 6 {
		t.Fatalf("pending %d, want 6", h.pending())
	}
	h.lane.Cancel(2)
	h.lane.Cancel(2)
	if h.lane.Len() != 4 {
		t.Fatalf("len %d after cancel, want 4", h.lane.Len())
	}
	h.step()
	h.step()
	if h.lane.Len() != 3 {
		t.Fatalf("len %d after two steps, want 3", h.lane.Len())
	}
	h.runAll()
	if h.lane.Len() != 0 {
		t.Fatalf("len %d after run, want 0", h.lane.Len())
	}
}

// TestPooledZeroAllocsSteadyState pins the allocation budget of keying:
// once the lane has grown to its working size, a cycle of keying,
// re-keying, arming, cancelling and firing allocates nothing.
func TestPooledZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	h := &harness{fired: make([]int32, 0, 256), when: make([]float64, 0, 256)}
	cycle := func() {
		h.clk.Reset()
		h.lane.Reset()
		h.fired, h.when = h.fired[:0], h.when[:0]
		for i := 0; i < 64; i++ {
			h.schedule(i, float64(i))
			h.arm(float64(i), int32(i), int32(i))
		}
		for i := 0; i < 16; i++ {
			h.lane.Cancel(int32(i * 3))
			h.schedule(i*2+1, float64(100+i))
		}
		h.runAll()
	}
	cycle() // warm the buffers
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocated %.1f objects, want 0", allocs)
	}
}

// TestPooledLaneZeroAllocsSteadyState is the same budget with lane
// traffic the way queuesim drives it: every arrival arms a timeout,
// most timeouts are cancelled by their query's departure before they
// fire, and some fire.
func TestPooledLaneZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const queries = 64
	// Typed events: 0 is the next arrival, 1+q query q's departure.
	h := &harness{fired: make([]int32, 0, 4*queries), when: make([]float64, 0, 4*queries)}
	timeouts, arrived := 0, int32(0)
	h.onFire = func(label int32) {
		switch {
		case label == 0: // arrival
			q := arrived
			arrived++
			h.arm(h.clk.Now()+3, q, q+1000)
			h.evs[1+q] = h.clk.After(float64(q%7) * 0.6)
			if arrived < queries {
				h.evs[0] = h.clk.After(1)
			}
		case label < 1000: // departure
			h.lane.Cancel(label - 1)
		default:
			timeouts++
		}
	}
	cycle := func() {
		h.clk.Reset()
		h.lane.Reset()
		h.fired, h.when = h.fired[:0], h.when[:0]
		arrived = 0
		for i := 0; i <= queries; i++ {
			h.schedule(i, 0)
			h.evs[i] = Never
		}
		h.schedule(0, 0)
		h.runAll()
	}
	cycle() // warm the buffers
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state lane cycle allocated %.1f objects, want 0", allocs)
	}
	if timeouts == 0 {
		t.Fatal("no timeout fired; the cycle should exercise both lane outcomes")
	}
}

func TestIdleRecycles(t *testing.T) {
	p := NewIdle[int](2)
	a, b, c := p.Get(), p.Get(), p.Get()
	if a == b || b == c || a == c {
		t.Fatal("Get on an empty recycler returned a value twice")
	}
	p.Put(a)
	p.Put(b)
	p.Put(c) // full: dropped
	if got := [2]*int{p.Get(), p.Get()}; got != [2]*int{a, b} {
		t.Fatalf("Get returned %v, want the values put first, %v", got, [2]*int{a, b})
	}
	if d := p.Get(); d == a || d == b || d == c {
		t.Fatal("a value put into a full recycler came back")
	}
	if raceEnabled {
		return
	}
	p.Put(a)
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); n != 0 {
		t.Fatalf("a warm Get and Put allocate %v times, want 0", n)
	}
}
