package sweep

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"

	"mdsprint/internal/dist"
	"mdsprint/internal/queuesim"
)

// Key is a 128-bit fingerprint of one (Params, Reps) evaluation point.
// Keys are derived from a canonical byte encoding of every field that
// influences the simulation's output, so two tasks with equal keys are
// guaranteed (up to FNV-128 collisions, and for Empirical services
// collisions of their 128-bit content digest) to produce bit-identical
// predictions, and any semantic change to a task changes its key.
type Key [16]byte

// String renders the key as hex for logs and test failure messages.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// appendFloat appends v's exact IEEE-754 bit pattern.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendUint appends a 64-bit integer field.
func appendUint(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendString appends a length-prefixed string so adjacent fields can
// never alias across the boundary.
func appendString(b []byte, s string) []byte {
	b = appendUint(b, uint64(len(s)))
	return append(b, s...)
}

// keyScratch is Fingerprint's reusable encoding state: the canonical
// byte buffer, which grows once to the largest encoding seen (a few
// hundred bytes, as Empirical samples encode as a digest), the hasher,
// and the digest it writes.
type keyScratch struct {
	buf []byte
	h   hash.Hash
	sum [16]byte
}

var keyScratchPool = sync.Pool{New: func() any {
	return &keyScratch{buf: make([]byte, 0, 256), h: fnv.New128a()}
}}

// Fingerprint computes the memoization key for evaluating p with reps
// pooled replications. The encoding covers the canonicalized Params
// (defaults applied, arrival distribution resolved) plus reps; Tracer and
// Clock are deliberately excluded — they observe a run without changing
// its measured response times. Distributions without a canonical encoding
// (types outside internal/dist's catalog) return an error, which the
// engine treats as "uncacheable" rather than risking a collision.
// Encoding and hashing reuse pooled scratch, so a steady-state call
// allocates nothing.
func Fingerprint(p queuesim.Params, reps int) (Key, error) {
	if reps <= 0 {
		reps = 1
	}
	c := p.Canonical()
	if c.Arrival == nil && (c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate)) {
		// Mirror queuesim's validation rather than panicking inside
		// dist.AppendCanonForRate on garbage input.
		return Key{}, fmt.Errorf("sweep: arrival rate %v must be positive", c.ArrivalRate)
	}
	if c.Service == nil {
		return Key{}, fmt.Errorf("sweep: service distribution required")
	}
	ks := keyScratchPool.Get().(*keyScratch)
	defer keyScratchPool.Put(ks)
	// v2 added the discipline, server count and dispatcher fields, v3
	// the Empirical content digest; each bump retires every older key.
	b := appendString(ks.buf[:0], "mdsprint/sweep/v3")
	b = appendFloat(b, c.ArrivalRate)
	var err error
	if c.Arrival == nil {
		// Run derives the arrival process from (ArrivalKind,
		// ArrivalRate) when none is given; encoding the derived process
		// makes the explicit and the derived spelling of the same
		// process hash identically.
		b = dist.AppendCanonForRate(b, c.ArrivalKind, c.ArrivalRate)
	} else if b, err = dist.AppendCanon(b, c.Arrival); err != nil {
		return Key{}, err
	}
	if b, err = dist.AppendCanon(b, c.Service); err != nil {
		return Key{}, err
	}
	b = appendFloat(b, c.ServiceRate)
	b = appendFloat(b, c.SprintRate)
	b = appendFloat(b, c.Timeout)
	b = appendFloat(b, c.BudgetSeconds)
	b = appendFloat(b, c.RefillTime)
	b = appendUint(b, uint64(c.Refill))
	b = appendUint(b, uint64(c.Slots))
	b = appendUint(b, uint64(c.NumQueries))
	b = appendUint(b, uint64(c.Warmup))
	b = appendUint(b, c.Seed)
	// Discipline, servers and dispatcher. Canonical has already applied
	// the defaults (FIFO, 1 server, nil dispatcher below 2 servers), so
	// the zero spelling and the explicit default hash identically; a
	// dispatcher is identified by its canonical spec string.
	b = appendString(b, string(c.Discipline.Kind))
	b = appendFloat(b, c.Discipline.PredictCV)
	b = appendUint(b, uint64(c.Servers))
	dispatchCanon := ""
	if c.Dispatch != nil {
		dispatchCanon = c.Dispatch.Canon()
	}
	b = appendString(b, dispatchCanon)
	b = appendUint(b, uint64(reps))
	ks.buf = b

	ks.h.Reset()
	// hash.Hash.Write never returns an error.
	//lint:ignore errdrop fnv's Write is documented to never fail
	ks.h.Write(b)
	var k Key
	copy(k[:], ks.h.Sum(ks.sum[:0]))
	return k, nil
}
