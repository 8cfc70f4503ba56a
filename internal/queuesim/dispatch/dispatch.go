// Package dispatch implements the multi-queue dispatching policies the
// simulator's Servers > 1 mode routes arrivals with: join-shortest-queue,
// least-work-left, round-robin and power-of-d-choices (random-d). These
// are the policies the dispatching literature compares under exactly the
// heavy-tailed workloads the sprinting model cares about; queuesim keeps
// per-server queues and a shared sprint budget, this package only decides
// which queue an arrival joins.
//
// Every dispatcher value is stateless and immutable — cyclic cursors and
// random draws live in the runner-owned queuesim.DispatchState — so one
// value can be shared across concurrent runners and memoized by its
// Canon() spec string. Parse accepts the same grammar Canon emits:
// "jsq", "lwl", "rr" and "rnd(d)".
package dispatch

import (
	"fmt"
	"strconv"
	"strings"

	"mdsprint/internal/queuesim"
)

// MaxChoices bounds random-d's candidate count; power-of-d gains flatten
// well before this, and the bound keeps the sampling scratch on the
// stack.
const MaxChoices = 16

// jsq joins the shortest queue (fewest resident queries), breaking ties
// toward the lowest server index.
type jsq struct{}

// JSQ returns the join-shortest-queue dispatcher.
func JSQ() queuesim.Dispatcher { return jsq{} }

// Canon implements queuesim.Dispatcher.
func (jsq) Canon() string { return "jsq" }

// Pick implements queuesim.Dispatcher.
func (jsq) Pick(v queuesim.ServerView, _ *queuesim.DispatchState) int {
	best := 0
	bestLen := v.QueueLen(0)
	for s := 1; s < v.NumServers(); s++ {
		if l := v.QueueLen(s); l < bestLen {
			best, bestLen = s, l
		}
	}
	return best
}

// lwl joins the queue with the least unfinished work (remaining service
// seconds), breaking ties toward the lowest server index.
type lwl struct{}

// LeastWork returns the least-work-left dispatcher.
func LeastWork() queuesim.Dispatcher { return lwl{} }

// Canon implements queuesim.Dispatcher.
func (lwl) Canon() string { return "lwl" }

// Pick implements queuesim.Dispatcher.
func (lwl) Pick(v queuesim.ServerView, _ *queuesim.DispatchState) int {
	best := 0
	bestWork := v.WorkLeft(0)
	for s := 1; s < v.NumServers(); s++ {
		if w := v.WorkLeft(s); w < bestWork {
			best, bestWork = s, w
		}
	}
	return best
}

// rr cycles through the servers in index order.
type rr struct{}

// RoundRobin returns the round-robin dispatcher.
func RoundRobin() queuesim.Dispatcher { return rr{} }

// Canon implements queuesim.Dispatcher.
func (rr) Canon() string { return "rr" }

// Pick implements queuesim.Dispatcher.
func (rr) Pick(v queuesim.ServerView, st *queuesim.DispatchState) int {
	s := st.Cursor % v.NumServers()
	st.Cursor++
	return s
}

// randomD samples d distinct servers uniformly and joins the shortest of
// them — the power-of-d-choices policy. d=1 is a uniform random split;
// d >= k degenerates to JSQ.
type randomD struct {
	d int
}

// RandomD returns the power-of-d-choices dispatcher. d must be in
// [1, MaxChoices].
func RandomD(d int) (queuesim.Dispatcher, error) {
	if d < 1 || d > MaxChoices {
		return nil, fmt.Errorf("dispatch: rnd choices %d out of range [1, %d]", d, MaxChoices)
	}
	return randomD{d: d}, nil
}

// Canon implements queuesim.Dispatcher.
func (p randomD) Canon() string { return fmt.Sprintf("rnd(%d)", p.d) }

// Pick implements queuesim.Dispatcher.
func (p randomD) Pick(v queuesim.ServerView, st *queuesim.DispatchState) int {
	k := v.NumServers()
	if p.d >= k {
		return jsq{}.Pick(v, st)
	}
	// Sample d distinct candidates by rejection; the scratch array stays
	// on the stack (d <= MaxChoices).
	var picks [MaxChoices]int
	for i := 0; i < p.d; i++ {
		for {
			c := st.RNG.Intn(k)
			dup := false
			for j := 0; j < i; j++ {
				if picks[j] == c {
					dup = true
					break
				}
			}
			if !dup {
				picks[i] = c
				break
			}
		}
	}
	best := picks[0]
	bestLen := v.QueueLen(best)
	for i := 1; i < p.d; i++ {
		if l := v.QueueLen(picks[i]); l < bestLen || (l == bestLen && picks[i] < best) {
			best, bestLen = picks[i], l
		}
	}
	return best
}

// Parse parses a dispatcher spec: "jsq", "lwl", "rr" or "rnd(d)",
// case-insensitively. It never panics on malformed input.
func Parse(spec string) (queuesim.Dispatcher, error) {
	s := strings.TrimSpace(strings.ToLower(spec))
	name, arg := s, ""
	hasArg := false
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("dispatch: spec %q missing ')'", spec)
		}
		name, arg = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:len(s)-1])
		hasArg = true
	}
	switch name {
	case "jsq", "lwl", "rr":
		if hasArg {
			return nil, fmt.Errorf("dispatch: %q takes no arguments", name)
		}
		switch name {
		case "jsq":
			return JSQ(), nil
		case "lwl":
			return LeastWork(), nil
		default:
			return RoundRobin(), nil
		}
	case "rnd":
		if arg == "" {
			return nil, fmt.Errorf("dispatch: rnd needs a choice count, e.g. rnd(2)")
		}
		d, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("dispatch: rnd choices %q: %v", arg, err)
		}
		return RandomD(d)
	default:
		return nil, fmt.Errorf("dispatch: unknown dispatcher %q", spec)
	}
}
