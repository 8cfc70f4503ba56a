package sweep

import (
	"sync"

	"mdsprint/internal/queuesim"
)

// entry is one memoized (or in-flight) evaluation. Entries are pooled:
// an entry leaves the LRU on eviction but returns to the free list only
// once nothing holds it, so an owner or waiter never sees its entry
// re-tenanted under it. prev and next link the LRU while the entry is
// retained.
type entry struct {
	key        Key
	pred       queuesim.Prediction
	err        error
	done       bool
	refs       int32 // holders: the LRU while retained, the owner until finish, each waiter until wait
	prev, next *entry
}

// cache is a concurrency-safe, size-bounded LRU of completed evaluations.
// The list head is most-recently used; lookups promote, inserts evict
// from the tail once the bound is exceeded. Evicting an in-flight entry
// is safe: the computation finishes and its waiters are served, the
// result just isn't retained. Waiters for an in-flight entry block on
// one condition variable, broadcast when any computation finishes, so a
// miss allocates nothing once the pool of entries has grown to the
// bound plus the evaluations in flight.
type cache struct {
	mu         sync.Mutex
	done       sync.Cond // signalled under mu when an entry finishes
	max        int
	n          int // retained entries
	head, tail *entry
	items      map[Key]*entry
	free       []*entry
}

func newCache(max int) *cache {
	c := &cache{max: max, items: make(map[Key]*entry, max)}
	c.done.L = &c.mu
	return c
}

// unlink removes a retained entry from the LRU.
func (c *cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront links e at the head of the LRU.
func (c *cache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// promote moves a retained entry to the head of the LRU.
func (c *cache) promote(e *entry) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// release drops one hold on e, returning it to the free list with the
// last.
func (c *cache) release(e *entry) {
	if e.refs--; e.refs == 0 {
		c.free = append(c.free, e)
	}
}

// getOrStart returns the entry for key and whether the caller owns the
// computation. owner=true means the entry is a fresh placeholder the
// caller must fill via finish; owner=false means another goroutine is
// (or was) computing it, and the caller reads it with wait. Either way
// the caller holds the entry until that finish or wait.
func (c *cache) getOrStart(key Key) (e *entry, owner bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.promote(e)
		e.refs++
		return e, false, 0
	}
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		e = &entry{}
	}
	*e = entry{key: key, refs: 2} // held by the LRU and the owner
	c.items[key] = e
	c.pushFront(e)
	c.n++
	for c.n > c.max {
		back := c.tail
		c.unlink(back)
		delete(c.items, back.key)
		c.n--
		c.release(back)
		evicted++
	}
	return e, true, evicted
}

// finish publishes the owner's result, wakes all waiters and releases
// the owner's hold on e.
func (c *cache) finish(e *entry, pred queuesim.Prediction, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pred, e.err, e.done = pred, err, true
	c.done.Broadcast()
	c.release(e)
}

// wait blocks until e is done, returns its result and releases the
// caller's hold on e.
func (c *cache) wait(e *entry) (queuesim.Prediction, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !e.done {
		c.done.Wait()
	}
	pred, err := e.pred, e.err
	c.release(e)
	return pred, err
}

// peek returns the successful result for key without starting
// anything: misses, memoized failures and in-flight computations all
// report ok=false. A hit still promotes the entry in the LRU — a peeked
// result is a used result.
func (c *cache) peek(key Key) (pred queuesim.Prediction, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok || !e.done || e.err != nil {
		return queuesim.Prediction{}, false // in flight: peeking must never block
	}
	c.promote(e)
	return e.pred, true
}

// len returns the number of retained entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
