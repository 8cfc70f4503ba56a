package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// sharedLab caches profiling and training across tests in this package.
var (
	labOnce   sync.Once
	sharedLab *Lab
)

func lab() *Lab {
	labOnce.Do(func() { sharedLab = NewLab(Quick()) })
	return sharedLab
}

func TestScalePresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.GridSamples >= f.GridSamples || q.ProfQueries >= f.ProfQueries {
		t.Fatal("quick scale should be smaller than full")
	}
	if len(f.Workloads) != 7 {
		t.Fatalf("full scale covers %d workloads, want all 7", len(f.Workloads))
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 42)
	s := tab.String()
	for _, want := range []string{"## T", "a", "bb", "note: hello 42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig1TimeoutSensitivity(t *testing.T) {
	r := Fig1(lab())
	if len(r.Settings) != 3 {
		t.Fatalf("got %d settings", len(r.Settings))
	}
	if r.Improvement <= 1.02 {
		t.Fatalf("timeout choice moved RT by only %v; Figure 1 needs visible sensitivity", r.Improvement)
	}
	for _, s := range r.Settings {
		if s.Sprinted == 0 {
			t.Fatalf("timeout %v: nothing sprinted", s.Timeout)
		}
		if len(s.Timeline) == 0 {
			t.Fatal("missing timeline records")
		}
	}
	var d resultDigest
	d.fig1(r)
	d.check(t, "Figure 1", 0x1a51805832fd6bea)
	_ = r.Table().String()
}

func TestTable1CWithinTolerance(t *testing.T) {
	r := Table1C(lab())
	if len(r.Rows) != 7 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	if e := r.MaxRelError(); e > 0.12 {
		t.Fatalf("measured throughput deviates %v from Table 1(C)", e)
	}
	var d resultDigest
	d.table1C(r)
	d.check(t, "Table 1(C)", 0x26e6dd26b1aad324)
	_ = r.Table().String()
}

func TestFig7HybridWins(t *testing.T) {
	r, err := Fig7(lab())
	if err != nil {
		t.Fatal(err)
	}
	hybrid := r.MedianError("Hybrid", "Overall")
	noml := r.MedianError("No-ML", "Overall")
	ann := r.MedianError("ANN", "Overall")
	annMore := r.MedianError("ANN +more data", "Overall")
	if hybrid > 0.20 {
		t.Fatalf("hybrid overall median error %v", hybrid)
	}
	if hybrid >= noml {
		t.Fatalf("hybrid (%v) should beat No-ML (%v)", hybrid, noml)
	}
	if hybrid >= ann {
		t.Fatalf("hybrid (%v) should beat ANN (%v)", hybrid, ann)
	}
	if math.IsNaN(annMore) {
		t.Fatal("ANN+more data missing")
	}
	var d resultDigest
	d.fig7(r)
	d.check(t, "Figure 7", 0xa54ee09694af3660)
	_ = r.Table().String()
}

func TestFig8SeriesShape(t *testing.T) {
	a, err := Fig8A(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(lab().Scale.Workloads) {
		t.Fatalf("Fig8A series %d", len(a.Series))
	}
	for _, s := range a.Series {
		if len(s.Errors) == 0 {
			t.Fatalf("series %s empty", s.Label)
		}
		if s.Median() > 0.30 {
			t.Fatalf("hybrid %s median error %v", s.Label, s.Median())
		}
	}
	b, err := Fig8B(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Series) != len(a.Series) {
		t.Fatal("Fig8B series count mismatch")
	}
	var d resultDigest
	d.fig8(a)
	d.fig8(b)
	d.check(t, "Figure 8A/8B", 0xb42102263692f896)
	_ = a.Table().String()
	_ = b.Table().String()
}

func TestFig8CAcrossHardware(t *testing.T) {
	r, err := Fig8C(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("got %d hardware series", len(r.Series))
	}
	for _, s := range r.Series {
		if s.Median() > 0.30 {
			t.Fatalf("%s median error %v", s.Label, s.Median())
		}
	}
	if r.CoreScaleDenseMedian > 0.25 {
		t.Fatalf("dense core-scaling median %v", r.CoreScaleDenseMedian)
	}
	_ = r.Table().String()
}

func TestFig9Mixes(t *testing.T) {
	r, err := Fig9(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("got %d mix series", len(r.Series))
	}
	for _, s := range r.Series {
		if s.Median() > 0.35 {
			t.Fatalf("%s median error %v", s.Label, s.Median())
		}
	}
	_ = r.Table().String()
}

func TestFig10Groups(t *testing.T) {
	r, err := Fig10(lab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) < 7 {
		t.Fatalf("got %d groups, want most of the 10 (small grids may drop a level)", len(r.Groups))
	}
	for _, g := range r.Groups {
		if len(g.Errors) == 0 {
			t.Fatalf("group %s/%s empty", g.Factor, g.Level)
		}
	}
	if out := r.Median("cluster", "out"); out < 0 {
		t.Fatal("cluster-out group missing")
	}
	_ = r.Table().String()
}

func TestMMKValidation(t *testing.T) {
	r := MMKValidation(lab())
	if r.MedianError > 0.06 {
		t.Fatalf("M/M/1 median error %v (paper reports 5%%)", r.MedianError)
	}
	var d resultDigest
	d.mmk(r)
	d.check(t, "M/M/1", 0xdc9f12b48afe9299)
	_ = r.Table().String()
}

func TestFig14Arithmetic(t *testing.T) {
	// Synthetic Figure 13 outcome: AWS hosts 1, sprinting hosts 4.
	f13 := Fig13Result{Rows: []Fig13Row{
		{Combo: Combos()[2].Name, Approach: "aws", Hosted: 1},
		{Combo: Combos()[2].Name, Approach: "model-driven sprinting", Hosted: 4},
	}}
	r := Fig14(f13)
	if r.HybridCrossover <= 0 || r.ANNCrossover <= r.HybridCrossover {
		t.Fatalf("crossovers wrong: hybrid %v ann %v", r.HybridCrossover, r.ANNCrossover)
	}
	if r.LifetimeRatio <= 1 {
		t.Fatalf("lifetime ratio %v", r.LifetimeRatio)
	}
	// Revenue curves never decrease.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Hybrid < r.Points[i-1].Hybrid || r.Points[i].AWS < r.Points[i-1].AWS {
			t.Fatal("revenue decreased over time")
		}
	}
	_ = r.Table().String()
}
