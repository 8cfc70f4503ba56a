package policies

import (
	"testing"

	"mdsprint/internal/explore"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
	"mdsprint/internal/sweep"
)

// jointCandidates is the standard panel the joint search compares: the
// paper's FIFO, the preemptive size-based disciplines, egalitarian
// sharing, and a two-queue JSQ fan-out of the FIFO baseline.
func jointCandidates() []JointCandidate {
	return []JointCandidate{
		{Discipline: queuesim.Discipline{Kind: queuesim.DiscFIFO}},
		{Discipline: queuesim.Discipline{Kind: queuesim.DiscSRPT}},
		{Discipline: queuesim.Discipline{Kind: queuesim.DiscPS}},
		{Discipline: queuesim.Discipline{Kind: queuesim.DiscFIFO}, Servers: 2, Dispatch: dispatch.JSQ()},
	}
}

func TestJointSearchOptimizesPerCandidate(t *testing.T) {
	c := throttledJacobi(t)
	c.SimQueries = 1200
	c.Engine = sweep.New(sweep.Options{})
	opts := explore.BatchOptions{Options: explore.Options{MaxIter: 40, Seed: 5}, Cohort: 4}

	cands := jointCandidates()
	outs, best, err := JointSearch(c, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cands) {
		t.Fatalf("%d outcomes for %d candidates", len(outs), len(cands))
	}
	if best < 0 || best >= len(outs) {
		t.Fatalf("best index %d out of range", best)
	}
	for i, o := range outs {
		if o.Candidate.Label() != cands[i].Label() {
			t.Fatalf("outcome %d is %s, want input order (%s)", i, o.Candidate.Label(), cands[i].Label())
		}
		if !(o.MeanRT > 0) {
			t.Fatalf("%s: mean RT %v", o.Candidate.Label(), o.MeanRT)
		}
		if o.Candidate.Discipline.Kind == queuesim.DiscPS {
			if o.Timeout != -1 || o.Evaluations != 0 {
				t.Fatalf("ps outcome %+v: want fixed no-sprint point", o)
			}
		} else {
			if o.Timeout < 0 {
				t.Fatalf("%s: annealed timeout %v", o.Candidate.Label(), o.Timeout)
			}
			if o.Evaluations == 0 {
				t.Fatalf("%s: annealer did no work", o.Candidate.Label())
			}
		}
		if outs[best].MeanRT > o.MeanRT {
			t.Fatalf("best %s (%.4f) worse than %s (%.4f)",
				outs[best].Candidate.Label(), outs[best].MeanRT, o.Candidate.Label(), o.MeanRT)
		}
	}

	// A sprinting discipline must beat sprint-less processor sharing at
	// 80% utilization with a real budget — otherwise the joint search is
	// not actually optimizing the timeout.
	var ps, fifo JointOutcome
	for _, o := range outs {
		switch {
		case o.Candidate.Discipline.Kind == queuesim.DiscPS:
			ps = o
		case o.Candidate.Label() == "fifo":
			fifo = o
		}
	}
	if fifo.MeanRT >= ps.MeanRT {
		t.Fatalf("optimized fifo RT %.4f not better than no-sprint ps RT %.4f", fifo.MeanRT, ps.MeanRT)
	}

	// Determinism: a second search over the same engine replays the
	// memoized evaluations and must land on identical outcomes.
	outs2, best2, err := JointSearch(c, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if best2 != best {
		t.Fatalf("second search best %d, first %d", best2, best)
	}
	for i := range outs {
		if outs[i] != outs2[i] {
			t.Fatalf("outcome %d not reproducible: %+v vs %+v", i, outs[i], outs2[i])
		}
	}
}

func TestJointSearchErrors(t *testing.T) {
	c := throttledJacobi(t)
	if _, _, err := JointSearch(c, nil, explore.BatchOptions{}); err == nil {
		t.Fatal("empty candidate list accepted")
	}
	c.Dataset.ServiceSamples = nil
	cands := []JointCandidate{{Discipline: queuesim.Discipline{}}}
	if _, _, err := JointSearch(c, cands, explore.BatchOptions{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestJointCandidateLabel(t *testing.T) {
	if l := (JointCandidate{Discipline: queuesim.Discipline{Kind: queuesim.DiscSRPT}}).Label(); l != "srpt" {
		t.Fatalf("label %q", l)
	}
	rnd2, err := dispatch.RandomD(2)
	if err != nil {
		t.Fatal(err)
	}
	jc := JointCandidate{
		Discipline: queuesim.Discipline{Kind: queuesim.DiscSERPT, PredictCV: 0.3},
		Servers:    4,
		Dispatch:   rnd2,
	}
	if l := jc.Label(); l != "serpt(0.3)/rnd(2)@4" {
		t.Fatalf("label %q", l)
	}
}
