package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// resultDigest pins an experiment's result cells bit for bit: floats by
// their exact bit patterns, counts as integers and labels as
// length-prefixed bytes, folded into one FNV-64a digest. The digests are
// taken from results the shape tests already compute, at Quick scale.
type resultDigest struct{ b []byte }

func (d *resultDigest) u(v uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, v) }

func (d *resultDigest) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *resultDigest) i(v int) { d.u(uint64(v)) }

func (d *resultDigest) s(v string) {
	d.i(len(v))
	d.b = append(d.b, v...)
}

// check fails t when the digest differs from want.
func (d *resultDigest) check(t *testing.T, name string, want uint64) {
	t.Helper()
	h := fnv.New64a()
	//lint:ignore errdrop fnv's Write is documented to never fail
	h.Write(d.b)
	if got := h.Sum64(); got != want {
		t.Errorf("%s result digest %#016x, want %#016x", name, got, want)
	}
}

func (d *resultDigest) fig7(r Fig7Result) {
	for _, a := range r.Approaches {
		d.s(a)
		for _, b := range fig7Buckets {
			d.s(b)
			d.i(len(r.Errors[a][b]))
			d.f(r.Errors[a][b]...)
		}
	}
}

func (d *resultDigest) fig8(r Fig8Result) {
	d.s(r.Model)
	for _, s := range r.Series {
		d.s(s.Label)
		d.i(len(s.Errors))
		d.f(s.Errors...)
	}
}

func (d *resultDigest) fig12A(r Fig12AB) {
	d.s(r.Workload)
	d.f(r.SLO)
	for _, c := range r.Curves {
		d.s(c.Setup.Name)
		d.f(c.Setup.Speedup, c.Setup.BudgetPct)
		d.i(len(c.Timeouts))
		d.f(c.Timeouts...)
		d.f(c.RTs...)
		d.f(c.FewToManyTimeout, c.FewToManyRT, c.AdrenalineTimeout, c.AdrenalineRT, c.ModelBestTimeout, c.ModelBestRT)
	}
}

func (d *resultDigest) fig12C(r Fig12CResult) {
	d.f(r.Timeouts...)
	d.f(r.Budgets...)
	for _, row := range r.RT {
		d.i(len(row))
		d.f(row...)
	}
}

// ablations digests the accuracy cells only; the wall-clock cells
// (per-run and per-observation nanoseconds) depend on the host.
func (d *resultDigest) ablations(r AblationsResult) {
	d.f(r.TickAgreement, r.BisectionResid, r.SteppingResid)
	for _, fc := range r.ForestConfigs {
		d.s(fc.Name)
		d.f(fc.Error)
	}
}

func (d *resultDigest) tailAccuracy(r TailAccuracyResult) {
	d.s(r.Workload)
	d.f(r.MeanMedErr, r.P95MedErr, r.P99MedErr)
	d.i(r.TestedConds)
}

func (d *resultDigest) disciplines(r DisciplineSweepResult) {
	for _, o := range r.Outcomes {
		d.s(o.Candidate.Label())
		d.f(o.Timeout, o.MeanRT)
		d.i(o.Evaluations)
	}
	d.i(r.Best)
}
