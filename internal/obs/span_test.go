package obs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestSpanNilSafety(t *testing.T) {
	var tr *SpanTracer
	sp := tr.StartSpan("root")
	if sp != nil {
		t.Fatalf("nil tracer started a span")
	}
	// Every method must no-op on a nil span.
	sp.SetString("k", "v")
	sp.SetFloat("k", 1)
	sp.SetInt("k", 1)
	sp.SetBool("k", true)
	sp.SetError(errors.New("x"))
	sp.End()
	if sp.StartChild("child") != nil {
		t.Fatalf("nil span started a child")
	}
	if sp.ID() != 0 {
		t.Fatalf("nil span has id %d", sp.ID())
	}
	if got := tr.Drain(); got != nil {
		t.Fatalf("nil tracer drained %v", got)
	}
	if tr.Finished() != 0 || tr.Active() != 0 {
		t.Fatalf("nil tracer reports activity")
	}
}

func TestStartSpanCtxDisabled(t *testing.T) {
	prev := SetActiveSpanTracer(nil)
	defer SetActiveSpanTracer(prev)
	if sp := StartSpanCtx(context.Background(), "x"); sp != nil {
		t.Fatalf("span started with tracing disabled")
	}
	if sp := StartSpanCtx(nil, "x"); sp != nil {
		t.Fatalf("span started from a nil context")
	}
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	clk := NewManualClock(time.Unix(100, 0))
	tr := NewSpanTracer(SpanOptions{Clock: clk})
	root := tr.StartSpan("pipeline")
	clk.Advance(time.Millisecond)
	child := root.StartChild("sweep")
	child.SetString("cache", "hit")
	child.SetFloat("timeout_s", 42.5)
	child.SetInt("worker", 3)
	child.SetBool("ok", true)
	clk.Advance(2 * time.Millisecond)
	child.SetError(errors.New("boom"))
	child.End()
	clk.Advance(time.Millisecond)
	root.End()

	if tr.Active() != 0 {
		t.Fatalf("active %d after ending all spans", tr.Active())
	}
	spans := tr.Drain()
	if len(spans) != 2 {
		t.Fatalf("drained %d spans, want 2", len(spans))
	}
	// End order: child first.
	c, r := spans[0], spans[1]
	if c.Name != "sweep" || r.Name != "pipeline" {
		t.Fatalf("drained order %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID || r.Parent != 0 {
		t.Fatalf("parentage: child.Parent=%d root.ID=%d root.Parent=%d", c.Parent, r.ID, r.Parent)
	}
	if c.StartNS != int64(time.Millisecond) || c.Duration() != 2*time.Millisecond {
		t.Fatalf("child timing start=%d dur=%v", c.StartNS, c.Duration())
	}
	if r.Duration() != 4*time.Millisecond {
		t.Fatalf("root duration %v", r.Duration())
	}
	if c.Err != "boom" {
		t.Fatalf("child err %q", c.Err)
	}
	if a, ok := c.Attr("cache"); !ok || a.Str != "hit" || a.Kind != AttrString {
		t.Fatalf("cache attr %+v ok=%v", a, ok)
	}
	if a, ok := c.Attr("timeout_s"); !ok || a.Num != 42.5 {
		t.Fatalf("timeout attr %+v", a)
	}
	if a, ok := c.Attr("worker"); !ok || a.Int != 3 {
		t.Fatalf("worker attr %+v", a)
	}
	if a, ok := c.Attr("ok"); !ok || !a.Bool {
		t.Fatalf("ok attr %+v", a)
	}
	if _, ok := c.Attr("absent"); ok {
		t.Fatalf("found absent attr")
	}
	// Drain leaves the buffer empty and IDs keep advancing.
	if tr.Finished() != 0 {
		t.Fatalf("finished %d after drain", tr.Finished())
	}
}

func TestSpanDoubleEndIsNoop(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{})
	sp := tr.StartSpan("once")
	sp.End()
	sp.End()
	if got := tr.Finished(); got != 1 {
		t.Fatalf("finished %d after double End, want 1", got)
	}
	if tr.Active() != 0 {
		t.Fatalf("active %d", tr.Active())
	}
}

func TestSpanSampling(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{SampleEvery: 3})
	kept := 0
	for i := 0; i < 9; i++ {
		sp := tr.StartSpan("root")
		if sp != nil {
			kept++
			// Children of a kept root are always kept.
			c := sp.StartChild("child")
			if c == nil {
				t.Fatalf("child of kept root sampled out")
			}
			c.End()
			sp.End()
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of 9 roots with SampleEvery=3, want 3", kept)
	}
	if _, sampled := tr.Dropped(); sampled != 6 {
		t.Fatalf("sampled-out count %d, want 6", sampled)
	}
}

func TestSpanMaxSpansOverflow(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{MaxSpans: 4})
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("s")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	if tr.Finished() != 4 {
		t.Fatalf("finished %d, want 4", tr.Finished())
	}
	if dropped, _ := tr.Dropped(); dropped != 6 {
		t.Fatalf("dropped %d, want 6", dropped)
	}
	spans := tr.Drain()
	for j, d := range spans {
		a, ok := d.Attr("i")
		if !ok || a.Int != int64(6+j) {
			t.Fatalf("retained span %d has i=%v; want newest 4 oldest-first", j, a.Int)
		}
	}
}

func TestSpanPoolRecycling(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{})
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			sp := tr.StartSpan("r")
			sp.SetInt("i", int64(i))
			c := sp.StartChild("c")
			c.SetString("k", "v")
			c.End()
			sp.End()
		}
		spans := tr.Drain()
		if len(spans) != 100 {
			t.Fatalf("round %d drained %d spans", round, len(spans))
		}
		// Recycled slots must not leak attributes between tenants.
		for _, d := range spans {
			switch d.Name {
			case "r":
				if len(d.Attrs) != 1 || d.Attrs[0].Key != "i" {
					t.Fatalf("root attrs leaked: %+v", d.Attrs)
				}
			case "c":
				if len(d.Attrs) != 1 || d.Attrs[0].Key != "k" {
					t.Fatalf("child attrs leaked: %+v", d.Attrs)
				}
			}
		}
	}
}

// TestSpanSteadyStateAllocs pins the pooling contract: once warmed, a
// start/attr/end cycle recycles span slots and attr capacity instead of
// allocating.
func TestSpanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tr := NewSpanTracer(SpanOptions{MaxSpans: 8})
	cycle := func() {
		sp := tr.StartSpan("s")
		sp.SetFloat("v", 1.5)
		c := sp.StartChild("c")
		c.SetInt("w", 2)
		c.End()
		sp.End()
	}
	for i := 0; i < 32; i++ {
		cycle() // warm the pool past the MaxSpans ring
	}
	if got := testing.AllocsPerRun(200, cycle); got > 0 {
		t.Fatalf("steady-state span cycle allocates %.1f/op, want 0", got)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{})
	root := tr.StartSpan("batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := root.StartChild("task")
				c.SetInt("worker", int64(w))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Drain()
	if len(spans) != 801 {
		t.Fatalf("drained %d spans, want 801", len(spans))
	}
	ids := make(map[uint64]bool, len(spans))
	for _, d := range spans {
		if ids[d.ID] {
			t.Fatalf("duplicate span id %d", d.ID)
		}
		ids[d.ID] = true
	}
}

func TestActiveSpanTracerInstall(t *testing.T) {
	tr := NewSpanTracer(SpanOptions{})
	prev := SetActiveSpanTracer(tr)
	defer SetActiveSpanTracer(prev)
	sp := StartSpanCtx(context.Background(), "root")
	if sp == nil {
		t.Fatalf("no span from active tracer")
	}
	child := StartSpanCtx(ContextWithSpan(context.Background(), sp), "child")
	if child == nil {
		t.Fatalf("no child from context span")
	}
	child.End()
	sp.End()
	spans := tr.Drain()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID {
		t.Fatalf("context parentage broken: %+v", spans)
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatalf("empty context carries a span")
	}
}

func TestAttrJSONRoundTrip(t *testing.T) {
	attrs := []Attr{
		{Key: "s", Kind: AttrString, Str: "hit"},
		{Key: "empty", Kind: AttrString},
		{Key: "f", Kind: AttrFloat, Num: 42.5},
		{Key: "fz", Kind: AttrFloat, Num: 0},
		{Key: "nan", Kind: AttrFloat, Num: math.NaN()},
		{Key: "pinf", Kind: AttrFloat, Num: math.Inf(1)},
		{Key: "ninf", Kind: AttrFloat, Num: math.Inf(-1)},
		{Key: "i", Kind: AttrInt, Int: -9007199254740993}, // beyond float53 exactness
		{Key: "iz", Kind: AttrInt},
		{Key: "b", Kind: AttrBool, Bool: true},
		{Key: "bz", Kind: AttrBool},
	}
	data, err := json.Marshal(attrs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []Attr
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != len(attrs) {
		t.Fatalf("round-tripped %d attrs, want %d", len(back), len(attrs))
	}
	for i, a := range attrs {
		b := back[i]
		if a.Key != b.Key || a.Kind != b.Kind || a.Str != b.Str || a.Int != b.Int || a.Bool != b.Bool {
			t.Fatalf("attr %d: %+v != %+v", i, a, b)
		}
		if math.IsNaN(a.Num) != math.IsNaN(b.Num) {
			t.Fatalf("attr %d NaN mismatch", i)
		}
		if !math.IsNaN(a.Num) && a.Num != b.Num {
			t.Fatalf("attr %d num %v != %v", i, a.Num, b.Num)
		}
	}
	if err := json.Unmarshal([]byte(`{"k":"x","t":"wat"}`), &back[0]); err == nil {
		t.Fatalf("unknown kind decoded without error")
	}
	if err := json.Unmarshal([]byte(`{"k":"x","t":"float","s":"zzz"}`), &back[0]); err == nil {
		t.Fatalf("bad special float decoded without error")
	}
}

func TestAttrValueRendering(t *testing.T) {
	cases := []struct {
		a    Attr
		want string
	}{
		{Attr{Kind: AttrString, Str: "v"}, "v"},
		{Attr{Kind: AttrFloat, Num: 1.5}, "1.5"},
		{Attr{Kind: AttrInt, Int: -2}, "-2"},
		{Attr{Kind: AttrBool, Bool: true}, "true"},
	}
	for _, c := range cases {
		if got := c.a.Value(); got != c.want {
			t.Fatalf("Value(%+v) = %q, want %q", c.a, got, c.want)
		}
	}
}
