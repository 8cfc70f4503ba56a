package dispatch

// Unit tests for the dispatcher policies against a scripted ServerView:
// pick semantics, tie-breaks, the rnd(d) distinct-sampling rejection
// loop, and the Parse/Canon spec grammar.

import (
	"testing"

	"mdsprint/internal/queuesim"
)

// fakeView scripts per-server queue lengths and work totals.
type fakeView struct {
	lens []int
	work []float64
}

func (v fakeView) NumServers() int        { return len(v.lens) }
func (v fakeView) QueueLen(s int) int     { return v.lens[s] }
func (v fakeView) WorkLeft(s int) float64 { return v.work[s] }

// seqIntn replays a scripted sequence of Intn results (cycling), so the
// rejection-sampling path is deterministic under test.
type seqIntn struct {
	vals []int
	i    int
}

func (r *seqIntn) Intn(n int) int {
	v := r.vals[r.i%len(r.vals)] % n
	r.i++
	return v
}

func TestJSQPicksShortestLowestIndex(t *testing.T) {
	var st queuesim.DispatchState
	v := fakeView{lens: []int{3, 1, 2, 1}}
	if got := JSQ().Pick(v, &st); got != 1 {
		t.Fatalf("JSQ picked %d, want 1 (shortest, lowest index on tie)", got)
	}
	if got := JSQ().Pick(fakeView{lens: []int{2, 2, 2}}, &st); got != 0 {
		t.Fatalf("JSQ all-equal picked %d, want 0", got)
	}
}

func TestLeastWorkPicksMinWork(t *testing.T) {
	var st queuesim.DispatchState
	// Queue lengths would say server 1; work says server 2.
	v := fakeView{lens: []int{3, 1, 2}, work: []float64{9, 5, 0.5}}
	if got := LeastWork().Pick(v, &st); got != 2 {
		t.Fatalf("LWL picked %d, want 2 (least work)", got)
	}
	if got := LeastWork().Pick(fakeView{lens: []int{1, 1}, work: []float64{4, 4}}, &st); got != 0 {
		t.Fatalf("LWL tie picked %d, want 0", got)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	var st queuesim.DispatchState
	v := fakeView{lens: []int{0, 0, 0}}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := RoundRobin().Pick(v, &st); got != w {
			t.Fatalf("pick %d: got server %d, want %d", i, got, w)
		}
	}
}

func TestRandomDSamplesDistinct(t *testing.T) {
	d, err := RandomD(2)
	if err != nil {
		t.Fatal(err)
	}
	// RNG yields 1, 1 (duplicate, rejected), then 3: candidates {1, 3};
	// server 3 has the shorter queue.
	st := queuesim.DispatchState{RNG: &seqIntn{vals: []int{1, 1, 3}}}
	v := fakeView{lens: []int{0, 5, 0, 2}}
	if got := d.Pick(v, &st); got != 3 {
		t.Fatalf("rnd(2) picked %d, want 3 (shorter of candidates {1,3})", got)
	}
}

func TestRandomDTieBreaksLowestIndex(t *testing.T) {
	d, err := RandomD(2)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates 2 then 1, equal lengths: lowest index wins.
	st := queuesim.DispatchState{RNG: &seqIntn{vals: []int{2, 1}}}
	v := fakeView{lens: []int{0, 4, 4}}
	if got := d.Pick(v, &st); got != 1 {
		t.Fatalf("rnd(2) tie picked %d, want 1 (lowest candidate index)", got)
	}
}

func TestRandomDDegeneratesToJSQ(t *testing.T) {
	d, err := RandomD(8)
	if err != nil {
		t.Fatal(err)
	}
	// d >= k: no sampling, straight JSQ (no RNG needed).
	var st queuesim.DispatchState
	v := fakeView{lens: []int{2, 0, 1}}
	if got := d.Pick(v, &st); got != 1 {
		t.Fatalf("rnd(8) over 3 servers picked %d, want 1 (JSQ)", got)
	}
}

func TestRandomDRange(t *testing.T) {
	for _, bad := range []int{0, -1, MaxChoices + 1} {
		if _, err := RandomD(bad); err == nil {
			t.Errorf("RandomD(%d) accepted, want error", bad)
		}
	}
	if _, err := RandomD(MaxChoices); err != nil {
		t.Errorf("RandomD(MaxChoices) rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{"jsq", "lwl", "rr", "rnd(1)", "rnd(2)", "rnd(16)"} {
		d, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if d.Canon() != spec {
			t.Errorf("Parse(%q).Canon() = %q, want round-trip", spec, d.Canon())
		}
	}
	// Case and whitespace insensitivity.
	for spec, want := range map[string]string{" JSQ ": "jsq", "RND( 3 )": "rnd(3)"} {
		if d, err := Parse(spec); err != nil || d.Canon() != want {
			t.Errorf("Parse(%q) = %v, %v; want %q", spec, d, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "pod", "rnd", "rnd()", "rnd(x)", "rnd(0)", "rnd(17)", "rnd(2",
		"jsq(1)", "lwl()", "rr(2)",
	} {
		if d, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want error", spec, d.Canon())
		}
	}
}
