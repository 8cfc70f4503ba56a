package experiments

import (
	"strings"
	"testing"
)

func TestDisciplineSweepQuick(t *testing.T) {
	lab := NewLab(Quick())
	res, err := DisciplineSweep(lab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(DefaultDisciplineSpecs()) {
		t.Fatalf("%d outcomes for %d specs", len(res.Outcomes), len(DefaultDisciplineSpecs()))
	}
	if res.Best < 0 || res.Best >= len(res.Outcomes) {
		t.Fatalf("best index %d", res.Best)
	}
	var fifoRT, srptRT float64
	for _, o := range res.Outcomes {
		if !(o.MeanRT > 0) {
			t.Fatalf("%s: mean RT %v", o.Candidate.Label(), o.MeanRT)
		}
		switch o.Candidate.Label() {
		case "fifo":
			fifoRT = o.MeanRT
		case "srpt":
			srptRT = o.MeanRT
		}
	}
	// SRPT minimizes mean response time among single-queue disciplines;
	// with both timeouts annealed it must not lose to FIFO by more than
	// annealing noise.
	if srptRT > fifoRT*1.10 {
		t.Fatalf("optimized srpt RT %.4f much worse than fifo %.4f", srptRT, fifoRT)
	}
	var d resultDigest
	d.disciplines(res)
	d.check(t, "discipline sweep", 0x40671f45ec604304)

	tbl := res.Table()
	if len(tbl.Rows) != len(res.Outcomes) {
		t.Fatalf("table has %d rows", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"srpt", "ps", "no-sprint", "jsq", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestDisciplineSweepRejectsBadSpecs(t *testing.T) {
	lab := NewLab(Quick())
	if _, err := DisciplineSweep(lab, []DisciplineSpec{{Discipline: "nope"}}); err == nil {
		t.Fatal("bad discipline spec accepted")
	}
	bad := []DisciplineSpec{{Discipline: "fifo", Dispatch: "pod", Servers: 2}}
	if _, err := DisciplineSweep(lab, bad); err == nil {
		t.Fatal("bad dispatch spec accepted")
	}
}
