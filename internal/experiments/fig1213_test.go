package experiments

import (
	"testing"
)

func TestFig12ATimeoutStudy(t *testing.T) {
	r, err := Fig12A(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 2 {
		t.Fatalf("got %d curves", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Timeouts) != len(c.RTs) || len(c.RTs) == 0 {
			t.Fatalf("%s: malformed curve", c.Setup.Name)
		}
		// The annealed model-driven timeout must be at least as good
		// as both heuristics under the same model (small tolerance for
		// simulation noise between evaluations).
		if c.ModelBestRT > c.AdrenalineRT*1.03 {
			t.Errorf("%s: model-driven RT %v worse than adrenaline %v",
				c.Setup.Name, c.ModelBestRT, c.AdrenalineRT)
		}
		if c.ModelBestRT > c.FewToManyRT*1.03 {
			t.Errorf("%s: model-driven RT %v worse than few-to-many %v",
				c.Setup.Name, c.ModelBestRT, c.FewToManyRT)
		}
	}
	if r.SLO <= 0 {
		t.Fatal("missing SLO reference")
	}
	var d resultDigest
	d.fig12A(r)
	d.check(t, "Figure 12A", 0x642149465e825a5a)
	_ = r.Table().String()
}

func TestFig12CBudgetTimeoutInteraction(t *testing.T) {
	r, err := Fig12C(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RT) != 3 || len(r.RT[0]) != len(r.Budgets) {
		t.Fatalf("malformed RT matrix")
	}
	// More budget never hurts for a fixed timeout (weak monotonicity up
	// to simulation noise).
	for ti := range r.Timeouts {
		first, last := r.RT[ti][0], r.RT[ti][len(r.Budgets)-1]
		if last > first*1.05 {
			t.Errorf("timeout %v: RT rose with budget (%v -> %v)", r.Timeouts[ti], first, last)
		}
	}
	var d resultDigest
	d.fig12C(r)
	d.check(t, "Figure 12C", 0xfbb9290534fb4f23)
	_ = r.Table().String()
}

func TestFig13Ordering(t *testing.T) {
	r := Fig13(lab())
	if len(r.Rows) != 9 {
		t.Fatalf("got %d rows, want 3 combos x 3 approaches", len(r.Rows))
	}
	for _, combo := range Combos() {
		aws := r.Hosted(combo.Name, "aws")
		budget := r.Hosted(combo.Name, "model-driven budgeting")
		sprint := r.Hosted(combo.Name, "model-driven sprinting")
		if aws < 0 || budget < 0 || sprint < 0 {
			t.Fatalf("%s: missing approach", combo.Name)
		}
		if !(aws <= budget && budget <= sprint) {
			t.Errorf("%s: hosted counts aws=%d budget=%d sprint=%d not ordered",
				combo.Name, aws, budget, sprint)
		}
	}
	// At least one combo must show the model-driven advantage strictly.
	combo1 := Combos()[0].Name
	if r.Hosted(combo1, "model-driven sprinting") <= r.Hosted(combo1, "aws") {
		t.Errorf("combo1: sprinting %d should beat aws %d",
			r.Hosted(combo1, "model-driven sprinting"), r.Hosted(combo1, "aws"))
	}
	_ = r.Table().String()
}

func TestTailLatencyRatio(t *testing.T) {
	r := TailLatency(lab())
	if r.RatioP99 <= 1 {
		t.Fatalf("AWS tail ratio %v, want > 1 (paper: 3.16x)", r.RatioP99)
	}
	if r.P999Threshold < r.P99Threshold {
		t.Fatal("thresholds inverted")
	}
	_ = r.Table().String()
}

func TestDataScalingANNImproves(t *testing.T) {
	r, err := DataScaling(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("got %d scaling rows", len(r.Rows))
	}
	first := r.Rows[0].ANNMedianError
	best := first
	for _, row := range r.Rows[1:] {
		if row.ANNMedianError < best {
			best = row.ANNMedianError
		}
	}
	if best >= first {
		t.Errorf("ANN error never improved with data: first %v, best later %v", first, best)
	}
	_ = r.Table().String()
}

func TestAblations(t *testing.T) {
	r, err := Ablations(lab())
	if err != nil {
		t.Fatal(err)
	}
	if r.EventNsPerRun <= 0 || r.Tick10msNsPerRun <= r.EventNsPerRun {
		t.Fatalf("tick engine should be slower: event %v ns vs tick %v ns", r.EventNsPerRun, r.Tick10msNsPerRun)
	}
	if r.TickAgreement > 0.05 {
		t.Fatalf("tick/event disagree by %v", r.TickAgreement)
	}
	if r.BisectionResid > 0.06 || r.SteppingResid > 0.10 {
		t.Fatalf("calibration residuals too large: %v / %v", r.BisectionResid, r.SteppingResid)
	}
	if len(r.ForestConfigs) != 5 {
		t.Fatalf("got %d forest configs", len(r.ForestConfigs))
	}
	var d resultDigest
	d.ablations(r)
	d.check(t, "ablations accuracy", 0x48ded87795f34bba)
	_ = r.Table().String()
}

func TestTailAccuracy(t *testing.T) {
	r, err := TailAccuracy(lab())
	if err != nil {
		t.Fatal(err)
	}
	if r.TestedConds == 0 {
		t.Fatal("no test conditions")
	}
	if r.MeanMedErr > 0.25 || r.P95MedErr > 0.4 || r.P99MedErr > 0.5 {
		t.Fatalf("tail accuracy off: mean %v p95 %v p99 %v", r.MeanMedErr, r.P95MedErr, r.P99MedErr)
	}
	var d resultDigest
	d.tailAccuracy(r)
	d.check(t, "tail accuracy", 0x9ad3061a6792c8be)
	_ = r.Table().String()
}
