// Package sim holds what the module's two discrete-event simulators, the
// ground-truth testbed (internal/testbed) and the model-side queue
// simulator (internal/queuesim), share: the (time, seq) order their
// events fire in, a virtual clock that hands out those keys, and a FIFO
// lane for timers armed in time order.
//
// The paper's reference simulator (Algorithm 1) steps a microsecond-
// resolution clock; firing scheduled events in time order is semantically
// equivalent (queuesim's tests cross-validate against a faithful
// tick-stepped implementation) and orders of magnitude faster, which is
// what makes the policy-space exploration of Section 4 practical.
//
// Each simulator holds only a few fixed kinds of event: the next
// arrival, the budget interrupt, one departure per running query (per
// server under processor sharing) and the sprint timeouts. So each keeps
// its pending events as typed fields holding a Key, with Never marking
// an unset one, and its step function fires the earliest by Key.Before
// and calls that kind's handler directly. Scheduling an event is
// Clock.At: it checks the time and takes the next seq, so same-time
// events fire in the order they were scheduled; re-keying an event
// takes a fresh seq exactly as scheduling it anew would. Timeouts, armed
// at a constant delay after each arrival, queue in a Lane instead, where
// a cancel is O(1) and a fired or cancelled timer never surfaces again.
package sim

import (
	"fmt"
	"math"
)

// Key is an event's place in firing order: its time, then its seq, the
// order in which the events were scheduled. Seqs are unique within a
// run, so no two keys tie.
type Key struct {
	Time float64
	Seq  uint64
}

// Never is the key of an unset event: every scheduled event fires
// before it, one at +Inf included.
var Never = Key{Time: math.Inf(1), Seq: math.MaxUint64}

// Before reports whether k fires before o. Times are never NaN (At
// refuses them), so !(k.Time > o.Time) below means the times are equal.
func (k Key) Before(o Key) bool {
	return k.Time < o.Time || !(k.Time > o.Time) && k.Seq < o.Seq
}

// Clock is a simulation's virtual time and its seq counter. The zero
// value is a clock at time zero.
type Clock struct {
	now float64
	seq uint64
}

// Reset rewinds the clock to time zero and seq zero.
func (c *Clock) Reset() { *c = Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// At returns the key of an event scheduled now to fire at time t, taking
// the next seq. It panics on NaN and on a time before Now, either of
// which would corrupt causality.
func (c *Clock) At(t float64) Key {
	if !(t >= c.now) {
		c.refuse(t)
	}
	c.seq++
	return Key{Time: t, Seq: c.seq - 1}
}

// refuse panics for At; kept out of line so that At inlines.
//
//go:noinline
func (c *Clock) refuse(t float64) {
	if !math.IsNaN(t) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, c.now))
	}
	panic("sim: schedule at NaN")
}

// After returns At(Now() + d).
func (c *Clock) After(d float64) Key { return c.At(c.now + d) }

// Fire moves the clock to the time of k, the event about to fire.
func (c *Clock) Fire(k Key) { c.now = k.Time }

// LaneEntry is one timer in a Lane: its key, the owner's slot it is
// armed for (a query's index in the owner's pool) and the id of the
// query holding that slot when it was armed.
type LaneEntry struct {
	Key
	Slot, ID int32
}

// Lane is a FIFO of timers armed in time order, such as a constant
// sprint timeout after each arrival, at most one armed per slot. A slot
// forgets its timer when the timer fires (Pop) or is cancelled; an entry
// whose slot has forgotten it, or now holds another query's timer, is
// dead and never surfaces at the front. Dead entries are dropped off the
// head as soon as they reach it, so the head is the front while a timer
// is armed, and the lane compacts once more than half of it is dead, so
// cancelled timers cannot pile up behind a far head. Every buffer keeps
// its capacity across Reset. The zero value is an empty lane.
type Lane struct {
	ents  []LaneEntry // ents[head:] in key order; ents[head] armed if live > 0
	head  int
	live  int
	last  float64 // time of the latest pushed timer
	armed []int32 // per slot: 1 + the armed timer's query id, or 0
}

// Reset empties the lane, keeping its capacity.
func (l *Lane) Reset() {
	l.ents, l.head, l.live, l.last = l.ents[:0], 0, 0, 0
	l.armed = l.armed[:0]
}

// Len returns the number of armed timers.
func (l *Lane) Len() int { return l.live }

// Push arms a timer at key k for query id in slot. k must come from the
// owner's Clock.At, and Push panics when k's time is earlier than the
// previous timer's since Reset or when slot already holds an armed
// timer.
func (l *Lane) Push(k Key, slot, id int32) {
	if k.Time < l.last {
		panic(fmt.Sprintf("sim: FIFO event at %v before the previous one at %v", k.Time, l.last))
	}
	for int(slot) >= len(l.armed) {
		l.armed = append(l.armed, 0)
	}
	if l.armed[slot] != 0 {
		panic(fmt.Sprintf("sim: slot %d already holds a timer", slot))
	}
	l.last = k.Time
	switch {
	case l.live == 0: // every entry left is dead
		l.ents, l.head = l.ents[:0], 0
	case len(l.ents) == cap(l.ents) && 2*l.head >= len(l.ents):
		// Slide the pending entries down rather than grow, once the
		// popped head takes half the buffer.
		l.ents, l.head = l.ents[:copy(l.ents, l.ents[l.head:])], 0
	}
	l.ents = append(l.ents, LaneEntry{Key: k, Slot: slot, ID: id})
	l.armed[slot] = id + 1
	l.live++
}

// dead reports whether ent's timer has fired or been cancelled.
func (l *Lane) dead(ent LaneEntry) bool { return l.armed[ent.Slot] != ent.ID+1 }

// dropDead drops dead entries off the head while a timer is armed.
func (l *Lane) dropDead() {
	for l.live > 0 && l.dead(l.ents[l.head]) {
		l.head++
	}
}

// Front returns the first armed timer. The lane must hold one
// (Len() > 0).
func (l *Lane) Front() LaneEntry { return l.ents[l.head] }

// Pop removes the front timer as it fires and returns it.
func (l *Lane) Pop() LaneEntry {
	ent := l.ents[l.head]
	l.head++
	l.live--
	l.armed[ent.Slot] = 0
	l.dropDead()
	return ent
}

// Cancel disarms slot's timer, reporting whether one was armed.
func (l *Lane) Cancel(slot int32) bool {
	if int(slot) >= len(l.armed) || l.armed[slot] == 0 {
		return false
	}
	l.armed[slot] = 0
	l.live--
	if len(l.ents)-l.head <= 2*l.live {
		l.dropDead()
		return true
	}
	n := 0
	for _, ent := range l.ents[l.head:] {
		if !l.dead(ent) {
			l.ents[n] = ent
			n++
		}
	}
	l.ents, l.head = l.ents[:n], 0
	return true
}
