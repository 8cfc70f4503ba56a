package main

import (
	"os"
	"path/filepath"
	"testing"

	"mdsprint/internal/obs"
	"mdsprint/internal/trace"
)

// TestPipelineTraceAcceptance is the tentpole acceptance check: one
// sprintctl run with tracing enabled must emit a Chrome trace whose
// span tree covers calibrate → sweep (with cache-hit annotations) →
// explore → online decisions, all under a single root, plus a non-empty
// decision ledger.
func TestPipelineTraceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline run")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	decPath := filepath.Join(dir, "decisions.jsonl")

	code := run([]string{"-quiet", "-trace", tracePath, "pipeline",
		"-samples", "6", "-queries", "120", "-sim-queries", "200",
		"-iters", "12", "-steps", "4", "-decisions-out", decPath})
	if code != 0 {
		t.Fatalf("sprintctl pipeline exited %d", code)
	}

	traceFile, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer traceFile.Close()
	spans, err := trace.LoadChromeTrace(traceFile)
	if err != nil {
		t.Fatalf("loading trace: %v", err)
	}
	byID := make(map[uint64]obs.SpanData, len(spans))
	byName := make(map[string][]obs.SpanData)
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}

	// Exactly one root, and it is the pipeline span.
	var roots []obs.SpanData
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 || roots[0].Name != "sprintctl.pipeline" {
		t.Fatalf("want a single sprintctl.pipeline root, got %d root(s): %+v", len(roots), roots)
	}
	rootID := roots[0].ID

	// ancestor walks a span's parent links up to the root.
	ancestor := func(s obs.SpanData, name string) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			if p.Name == name {
				return true
			}
			s = p
		}
		return false
	}

	// Every stage must appear, rooted under the pipeline span.
	for _, name := range []string{
		"calib.dataset", "calib.record", "sweep.task", "sweep.eval",
		"explore.minimize", "online.decide", "online.tier", "core.predict",
	} {
		ss := byName[name]
		if len(ss) == 0 {
			t.Errorf("no %q span in the trace", name)
			continue
		}
		if !ancestor(ss[0], "sprintctl.pipeline") {
			t.Errorf("%q span %d does not descend from the pipeline root", name, ss[0].ID)
		}
	}

	// Calibration's per-record searches nest under the dataset span.
	for _, s := range byName["calib.record"] {
		if !ancestor(s, "calib.dataset") {
			t.Errorf("calib.record %d not under calib.dataset", s.ID)
		}
	}
	// The sweep stage annotates cache outcomes, and the replayed batch
	// must have produced hits.
	hits := 0
	for _, s := range append(byName["sweep.task"], byName["sweep.eval"]...) {
		a, ok := s.Attr("cache")
		if !ok {
			t.Errorf("sweep span %d has no cache annotation", s.ID)
			continue
		}
		if a.Str == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no sweep span recorded a cache hit")
	}
	// Online decisions hang directly off the root, with their tier
	// attempts and model predictions nested inside.
	for _, s := range byName["online.decide"] {
		if s.Parent != rootID {
			t.Errorf("online.decide %d parented to %d, want the root", s.ID, s.Parent)
		}
		if a, ok := s.Attr("tier"); !ok || a.Str == "" {
			t.Errorf("online.decide %d missing tier attribute", s.ID)
		}
	}
	for _, s := range byName["core.predict"] {
		if !ancestor(s, "online.tier") && !ancestor(s, "core.predict_batch") {
			t.Errorf("core.predict %d floats outside the decision/batch tree", s.ID)
		}
	}

	// The decision ledger rode along.
	decFile, err := os.Open(decPath)
	if err != nil {
		t.Fatal(err)
	}
	defer decFile.Close()
	recs, err := trace.LoadDecisions(decFile)
	if err != nil {
		t.Fatalf("loading decisions: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d decision records, want 4 (one per online step)", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i || r.Fingerprint == "" || r.Tier == "" || r.Timeout <= 0 {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if !r.Retuned {
			t.Errorf("record %d: the drifting-load loop must retune every step", i)
		}
	}
}
