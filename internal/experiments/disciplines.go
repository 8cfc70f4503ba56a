package experiments

import (
	"fmt"

	"mdsprint/internal/explore"
	"mdsprint/internal/mech"
	"mdsprint/internal/policies"
	"mdsprint/internal/profiler"
	"mdsprint/internal/queuesim"
	"mdsprint/internal/queuesim/dispatch"
	"mdsprint/internal/workload"
)

// DisciplineSpec names one scheduling configuration by its spec strings —
// the same grammar sprintctl and the config surface accept — so the
// sweep exercises the parse layer end-to-end.
type DisciplineSpec struct {
	// Discipline is a queuesim.ParseDiscipline spec ("fifo", "srpt",
	// "serpt(0.3)", ...).
	Discipline string
	// Dispatch is a dispatch.Parse spec ("jsq", "rnd(2)", ...); empty
	// keeps the single central queue.
	Dispatch string
	// Servers is the fan-out width when Dispatch is set.
	Servers int
}

// DefaultDisciplineSpecs is the panel the EXPERIMENTS.md table records:
// every discipline on the central queue, plus two-queue fan-outs of the
// FIFO baseline and the strongest size-based discipline.
func DefaultDisciplineSpecs() []DisciplineSpec {
	return []DisciplineSpec{
		{Discipline: "fifo"},
		{Discipline: "lifo"},
		{Discipline: "srpt"},
		{Discipline: "serpt(0.3)"},
		{Discipline: "ps"},
		{Discipline: "fifo", Dispatch: "jsq", Servers: 2},
		{Discipline: "srpt", Dispatch: "rnd(2)", Servers: 2},
	}
}

// DisciplineSweepResult is the joint discipline x timeout study: each
// spec's annealed sprint timeout and model-predicted mean response time,
// on the Section 4.3 throttled-Jacobi workload at 80% utilization.
type DisciplineSweepResult struct {
	Outcomes []policies.JointOutcome
	// Best indexes the winning outcome.
	Best int
}

// DisciplineSweep parses the specs, profiles the throttled-Jacobi
// workload, and runs the joint discipline x sprint-timeout search at the
// lab's scale. A nil specs uses DefaultDisciplineSpecs.
func DisciplineSweep(lab *Lab, specs []DisciplineSpec) (DisciplineSweepResult, error) {
	var res DisciplineSweepResult
	if specs == nil {
		specs = DefaultDisciplineSpecs()
	}
	cands := make([]policies.JointCandidate, len(specs))
	for i, s := range specs {
		d, err := queuesim.ParseDiscipline(s.Discipline)
		if err != nil {
			return res, fmt.Errorf("experiments: spec %d: %w", i, err)
		}
		cands[i] = policies.JointCandidate{Discipline: d}
		if s.Dispatch != "" {
			dsp, err := dispatch.Parse(s.Dispatch)
			if err != nil {
				return res, fmt.Errorf("experiments: spec %d: %w", i, err)
			}
			cands[i].Dispatch = dsp
			cands[i].Servers = s.Servers
		}
	}

	// The Section 4.3 conditions the policy comparisons use: Jacobi
	// under 20% CPU throttling. The sweep needs only the rates and
	// service samples, so measure those directly instead of profiling a
	// full condition grid.
	p := &profiler.Profiler{
		Mix:           workload.SingleClass(workload.MustByName("Jacobi")),
		Mechanism:     mech.NewThrottle(0.20),
		QueriesPerRun: lab.Scale.ProfQueries,
		Seed:          lab.Scale.Seed + 211,
	}
	mu, samples, _ := p.MeasureServiceRate()
	mum, _ := p.MeasureMarginalRate()
	ds := &profiler.Dataset{
		MixName: "Jacobi", MechName: "Throttle20%",
		ServiceRate: mu, MarginalRate: mum, ServiceSamples: samples,
	}
	// BudgetPct is deliberately tight: at 80% utilization and ~5x
	// speedup, sprint demand is ~16% of capacity, so a 30% budget would
	// let every candidate sprint every query (timeout 0) and erase the
	// discipline differences; at 10% the budget exhausts, queries queue
	// at the sustained rate part of each window, and the ready-queue
	// order matters.
	ctx := policies.Context{
		Dataset:     ds,
		ArrivalRate: 0.8 * mu,
		RefillTime:  600,
		BudgetPct:   0.10,
		SimQueries:  lab.Scale.SimQueries,
		SimReps:     lab.Scale.SimReps,
		Seed:        lab.Scale.Seed + 223,
		Engine:      lab.Engine(),
	}
	// Outcomes report each search's evaluation count, which counts
	// speculation and so depends on the cohort: fix it, rather than take
	// the host's CPU count.
	opts := explore.BatchOptions{
		Options: explore.Options{MaxIter: lab.Scale.AnnealIter, Seed: lab.Scale.Seed + 227},
		Cohort:  8,
	}
	outs, best, err := policies.JointSearch(ctx, cands, opts)
	if err != nil {
		return res, err
	}
	res.Outcomes = outs
	res.Best = best
	return res, nil
}

// Table renders the sweep for EXPERIMENTS.md.
func (r DisciplineSweepResult) Table() Table {
	t := Table{
		Title:   "Scheduling disciplines — joint discipline x timeout search (throttled Jacobi, 80% utilization)",
		Columns: []string{"configuration", "best timeout", "mean RT", "vs fifo"},
	}
	var fifoRT float64
	for _, o := range r.Outcomes {
		if o.Candidate.Label() == "fifo" {
			fifoRT = o.MeanRT
			break
		}
	}
	for i, o := range r.Outcomes {
		to := secs(o.Timeout)
		if o.Timeout < 0 {
			to = "no-sprint"
		}
		vs := "-"
		if fifoRT > 0 {
			vs = ratio(o.MeanRT / fifoRT)
		}
		cells := []string{o.Candidate.Label(), to, secs(o.MeanRT), vs}
		if i == r.Best {
			cells[0] += " *"
		}
		t.AddRow(cells...)
	}
	t.AddNote("* lowest optimized mean RT; each row anneals its own sprint timeout (Equation 4), ps runs without sprinting")
	return t
}
