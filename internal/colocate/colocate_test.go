package colocate

import (
	"math"
	"testing"

	"mdsprint/internal/sprint"
	"mdsprint/internal/workload"
)

func jacobiWorkload(util float64) Workload {
	return Workload{
		Name: "Jacobi", Class: workload.MustByName("Jacobi"),
		Utilization: util, ArrivalCV: BurstyArrivalCV,
	}
}

var testEst = SimEstimator{SimQueries: 2000, SimReps: 2, Seed: 5}

func TestAWSPlanMatchesPublishedPolicy(t *testing.T) {
	p := AWSPlan()
	if p.Fraction != 0.20 || p.Speedup != 5 || p.RefillTime != 3600 {
		t.Fatalf("AWS plan %+v", p)
	}
	// 720 sprint-seconds per hour.
	if got := p.BudgetPct * p.RefillTime; got != 720 {
		t.Fatalf("AWS budget %v sprint-seconds/hour, want 720", got)
	}
}

func TestCPUCommitment(t *testing.T) {
	aws := AWSPlan()
	// 0.20 sustained + 0.20*0.20*4 sprint surplus = 0.36.
	if got := aws.CPUCommitment(); math.Abs(got-0.36) > 1e-12 {
		t.Fatalf("AWS commitment %v, want 0.36", got)
	}
	if got := (Plan{Dedicated: true}).CPUCommitment(); got != 1 {
		t.Fatalf("dedicated commitment %v, want 1", got)
	}
}

func TestWorkloadRates(t *testing.T) {
	w := jacobiWorkload(0.8)
	// Section 4.3: sustained 14.8 qph at the 20% throttle; 80% of that
	// is 11.84 qph.
	if got := sprint.ToQPH(w.ArrivalRate()); math.Abs(got-11.84) > 0.01 {
		t.Fatalf("arrival rate %v qph, want 11.84", got)
	}
	if got := sprint.ToQPH(w.FullRate()); got != 74 {
		t.Fatalf("full rate %v qph, want 74", got)
	}
}

func TestBaselineRTNearUnthrottledService(t *testing.T) {
	w := jacobiWorkload(0.7)
	base := testEst.BaselineRT(w)
	// Unthrottled Jacobi serves at 74 qph (48.6 s mean) while arrivals
	// are far slower, so RT sits just above one service time.
	svc := 3600.0 / 74
	if base < svc || base > 1.5*svc {
		t.Fatalf("baseline RT %v, want within [%v, %v]", base, svc, 1.5*svc)
	}
}

func TestThrottlingInflatesRT(t *testing.T) {
	w := jacobiWorkload(0.7)
	base := testEst.BaselineRT(w)
	throttledNoSprint := testEst.MeanRT(w, Plan{Fraction: 0.2, Speedup: 1, RefillTime: 3600, Timeout: -1})
	if throttledNoSprint < 3*base {
		t.Fatalf("throttled-without-sprint RT %v should dwarf baseline %v", throttledNoSprint, base)
	}
}

func TestMeetsSLOBehaviour(t *testing.T) {
	w := jacobiWorkload(0.7)
	// A full-CPU plan trivially meets SLO.
	if !MeetsSLO(w, Plan{Fraction: 1, Speedup: 1, RefillTime: 3600, Timeout: -1}, testEst) {
		t.Fatal("unthrottled plan violates SLO")
	}
	// Hard throttling with no sprint budget cannot.
	if MeetsSLO(w, Plan{Fraction: 0.2, Speedup: 1, RefillTime: 3600, Timeout: -1}, testEst) {
		t.Fatal("hard throttle with no sprinting met SLO")
	}
}

func TestBudgetPlannerFindsCheaperPlansThanAWS(t *testing.T) {
	w := jacobiWorkload(0.7)
	plan, ok := BudgetPlanner(testEst, AWSRefill)(w)
	if !ok {
		t.Fatal("budget planner failed to meet SLO for Jacobi at 70%")
	}
	if plan.CPUCommitment() >= 1 {
		t.Fatalf("budget plan commitment %v", plan.CPUCommitment())
	}
	if !MeetsSLO(w, plan, testEst) {
		t.Fatalf("returned plan violates SLO: %v", plan)
	}
}

func TestSprintPlannerAtMostBudgetCommitment(t *testing.T) {
	w := jacobiWorkload(0.7)
	bp, okB := BudgetPlanner(testEst, AWSRefill)(w)
	sp, okS := SprintPlanner(testEst, 40, 7)(w)
	if !okB || !okS {
		t.Fatalf("planners failed: budget=%v sprint=%v", okB, okS)
	}
	// Timeout exploration can only widen the feasible set, so the
	// sprint planner's commitment is never worse.
	if sp.CPUCommitment() > bp.CPUCommitment()+1e-9 {
		t.Fatalf("sprint plan commitment %v > budget plan %v", sp.CPUCommitment(), bp.CPUCommitment())
	}
}

func TestFillNodeRespectsCapacity(t *testing.T) {
	ws := []Workload{jacobiWorkload(0.7), jacobiWorkload(0.7), jacobiWorkload(0.7), jacobiWorkload(0.7)}
	assigns, n := FillNode(ws, BudgetPlanner(testEst, AWSRefill))
	if n != len(assigns) {
		t.Fatalf("count %d, %d assignments", n, len(assigns))
	}
	used := 0.0
	for _, a := range assigns {
		used += a.Plan.CPUCommitment()
	}
	if used > 1+1e-9 {
		t.Fatalf("node oversubscribed: %v", used)
	}
	// Model-driven plans must colocate more than one workload.
	if n < 2 {
		t.Fatalf("budget planner hosted %d of 4 on one node", n)
	}
}

func TestFillNodeEmptyInput(t *testing.T) {
	if assigns, n := FillNode(nil, AWSPlanner(testEst)); n != 0 || len(assigns) != 0 {
		t.Fatalf("empty fill: %d, %+v", n, assigns)
	}
}

func TestFillNodeDedicatedTakesWholeNode(t *testing.T) {
	failPlanner := func(w Workload) (Plan, bool) { return Plan{Dedicated: true}, false }
	assigns, n := FillNode([]Workload{jacobiWorkload(0.7), jacobiWorkload(0.7)}, failPlanner)
	if n != 1 || !assigns[0].Plan.Dedicated {
		t.Fatalf("dedicated workloads share a node: %d hosted, %+v", n, assigns)
	}
}

func TestFillNodeOrdering(t *testing.T) {
	// Single-node packing: the sprint planner's cheaper plans fit more
	// workloads on one node than budgeting, which beats AWS (the
	// Figure 13 bar ordering).
	ws := []Workload{jacobiWorkload(0.7), jacobiWorkload(0.7), jacobiWorkload(0.7), jacobiWorkload(0.7)}
	_, nAWS := FillNode(ws, AWSPlanner(testEst))
	_, nBudget := FillNode(ws, BudgetPlanner(testEst, AWSRefill))
	_, nSprint := FillNode(ws, SprintPlanner(testEst, 30, 7))
	if !(nAWS <= nBudget && nBudget <= nSprint) {
		t.Fatalf("hosted counts aws=%d budget=%d sprint=%d, want non-decreasing", nAWS, nBudget, nSprint)
	}
	if nSprint <= nAWS {
		t.Fatalf("sprint planner (%d) should host strictly more than AWS (%d)", nSprint, nAWS)
	}
}

func TestPlanString(t *testing.T) {
	if got := (Plan{Dedicated: true}).String(); got != "Plan{dedicated}" {
		t.Fatalf("dedicated string %q", got)
	}
	p := AWSPlan()
	s := p.String()
	for _, want := range []string{"cpu=20%", "sprint=5x", "budget=20%", "commit=0.36"} {
		if !containsStr(s, want) {
			t.Fatalf("plan string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMeetsSLODedicatedAlwaysTrue(t *testing.T) {
	if !MeetsSLO(jacobiWorkload(0.9), Plan{Dedicated: true}, testEst) {
		t.Fatal("dedicated plan must trivially satisfy the SLO")
	}
}

func TestAWSPlannerPassesAtLowLoad(t *testing.T) {
	// A calm, lightly loaded tenant meets the fixed AWS policy's SLO.
	w := Workload{
		Name: "Jacobi", Class: workload.MustByName("Jacobi"),
		Utilization: 0.3, ArrivalCV: 1, // Poisson
	}
	plan, ok := AWSPlanner(testEst)(w)
	if !ok || plan.Dedicated {
		t.Fatalf("AWS planner failed a calm workload: ok=%v %v", ok, plan)
	}
}
