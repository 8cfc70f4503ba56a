package sweep

import (
	"runtime"
	"sync"
	"testing"

	"mdsprint/internal/queuesim"
)

// keyOf returns a distinct cache key for i.
func keyOf(i int) Key {
	var k Key
	k[0], k[1], k[2], k[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
	return k
}

// TestCacheMissZeroAllocs pins the memo's miss path: once the entry pool
// has grown to the bound, a miss that evicts the least recently used
// entry reuses it and allocates nothing.
func TestCacheMissZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	c := newCache(16)
	next := 0
	miss := func() {
		e, owner, _ := c.getOrStart(keyOf(next))
		next++
		if !owner {
			t.Fatal("a fresh key did not start a computation")
		}
		c.finish(e, queuesim.Prediction{MeanRT: float64(next)}, nil)
	}
	for i := 0; i < 64; i++ {
		miss() // fill the bound and warm the free list
	}
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("a cache miss allocated %.1f objects, want 0", allocs)
	}
	if c.len() != 16 {
		t.Fatalf("cache holds %d entries, want its bound 16", c.len())
	}
}

// TestCacheEvictInFlight evicts an entry while its owner is still
// computing and a waiter holds it: the entry must not be handed to a new
// key until both have read the result, and peek must report the
// in-flight key as a miss without blocking.
func TestCacheEvictInFlight(t *testing.T) {
	c := newCache(1)
	owned, owner, _ := c.getOrStart(keyOf(1))
	if !owner {
		t.Fatal("expected to own the fresh entry")
	}
	held, owner, _ := c.getOrStart(keyOf(1))
	if owner || held != owned {
		t.Fatal("a second caller did not join the in-flight entry")
	}
	if _, ok := c.peek(keyOf(1)); ok {
		t.Fatal("peek hit an in-flight entry")
	}
	// Two more keys through a one-entry cache: key 1 is evicted in
	// flight, key 2 is evicted done and recycled for key 3.
	for _, k := range []int{2, 3} {
		e, owner, evicted := c.getOrStart(keyOf(k))
		if !owner || evicted != 1 {
			t.Fatalf("key %d: owner %v evicted %d, want true 1", k, owner, evicted)
		}
		if e == owned {
			t.Fatalf("key %d took the entry still in flight for key 1", k)
		}
		c.finish(e, queuesim.Prediction{MeanRT: float64(k)}, nil)
	}
	c.finish(owned, queuesim.Prediction{MeanRT: 1}, nil)
	if pred, err := c.wait(held); err != nil || pred.MeanRT != 1 {
		t.Fatalf("waiter read %v, %v; want MeanRT 1", pred, err)
	}
	if _, ok := c.peek(keyOf(1)); ok {
		t.Fatal("an entry evicted in flight was retained")
	}
	if pred, ok := c.peek(keyOf(3)); !ok || pred.MeanRT != 3 {
		t.Fatalf("peek of the retained key: %v %v", pred, ok)
	}
	// With both holds released, key 1's entry is free for the next miss.
	e, _, _ := c.getOrStart(keyOf(4))
	if e != owned {
		t.Fatal("the released entry was not reused")
	}
	c.finish(e, queuesim.Prediction{}, nil)
}

// TestCacheConcurrentChurn runs owners, waiters and hits for 16 keys
// through a 4-entry cache from several goroutines, so entries are
// evicted in flight and recycled while other goroutines hold them: every
// caller must read the result computed for its own key.
func TestCacheConcurrentChurn(t *testing.T) {
	c := newCache(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7 + i*3) % 16
				e, owner, _ := c.getOrStart(keyOf(k))
				var pred queuesim.Prediction
				if owner {
					runtime.Gosched() // let others join or evict it in flight
					pred = queuesim.Prediction{MeanRT: float64(k)}
					c.finish(e, pred, nil)
				} else {
					pred, _ = c.wait(e)
				}
				if pred.MeanRT != float64(k) {
					t.Errorf("key %d read the result of key %v", k, pred.MeanRT)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() != 4 {
		t.Fatalf("cache holds %d entries, want its bound 4", c.len())
	}
}
