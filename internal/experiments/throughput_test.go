package experiments

import "testing"

// TestFig11Throughput lives in its own file so that it runs after the
// package's long tests: go test runs a package's files in name order,
// and this name sorts after every other test file here. By then a full
// go test ./... has normally finished building and testing every other
// package, so the scaling ratio is timed on an otherwise quiet host
// rather than against the rest of the suite.
func TestFig11Throughput(t *testing.T) {
	r := Fig11(lab())
	if len(r.Points) == 0 {
		t.Fatal("no measurements")
	}
	// CoV must shrink as simulated queries grow (the variance knee).
	byWorkers := map[int][]Fig11Point{}
	for _, p := range r.Points {
		byWorkers[p.Workers] = append(byWorkers[p.Workers], p)
		if p.PredictionsPerMin <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
	}
	for w, pts := range byWorkers {
		first, last := pts[0], pts[len(pts)-1]
		if last.CoV >= first.CoV {
			t.Errorf("workers=%d: CoV did not shrink with more queries (%v -> %v)", w, first.CoV, last.CoV)
		}
		if last.PredictionsPerMin >= first.PredictionsPerMin {
			t.Errorf("workers=%d: throughput should fall with more queries", w)
		}
	}
	if r.Scaling <= 1 && r.MaxCPUs > 1 {
		t.Fatalf("no multi-core scaling: %v", r.Scaling)
	}
	_ = r.Table().String()
}
