package sim

// Idle recycles run scratch, such as a simulator's runner or server and
// their buffers, across runs: Get takes an idle value, or a new zero
// value when none is idle, and Put keeps a value for a later Get while
// fewer than the capacity given to NewIdle are idle, leaving it to the
// collector otherwise. Reuse must only affect buffer capacity, never
// results. Unlike a sync.Pool, any goroutine can take any idle value and
// no collection empties it: a pool drops its values every other
// collection and keeps each processor's last one where only that
// processor can take it, so how much a run rebuilt from nothing hung on
// when the collector happened to run, and on which processor each
// goroutine ran. Size it for the concurrent holders; the price is that
// idle values keep their largest buffers for the life of the process.
type Idle[T any] chan *T

// NewIdle returns a recycler that keeps up to n idle values.
func NewIdle[T any](n int) Idle[T] { return make(Idle[T], n) }

// Get returns an idle value, or a new zero value when none is idle.
func (p Idle[T]) Get() *T {
	select {
	case v := <-p:
		return v
	default:
		return new(T)
	}
}

// Put keeps v for a later Get, or drops it when the recycler is full.
func (p Idle[T]) Put(v *T) {
	select {
	case p <- v:
	default:
	}
}
