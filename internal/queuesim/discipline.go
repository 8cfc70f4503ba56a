package queuesim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file makes the ready queue pluggable. The paper's model is a FIFO
// G/G/k queue, but which query runs next (and whether a running query can
// be displaced) changes both the response-time distribution and the value
// of a sprint prediction — SkipPredict's cheap/expensive split is exactly
// a size-ordered discipline. The FIFO path keeps the original ring buffer
// and is bit-identical to the reference engine in reference_test.go; the
// ordered disciplines share one intrusive index heap over the query slab,
// so selecting a discipline never adds a steady-state allocation.

// DisciplineKind names a queueing discipline.
type DisciplineKind string

// The simulator's discipline catalog.
const (
	// DiscFIFO is first-in-first-out — the paper's model and the
	// default. The zero Discipline selects it.
	DiscFIFO DisciplineKind = "fifo"
	// DiscLIFO is last-in-first-out, non-preemptive.
	DiscLIFO DisciplineKind = "lifo"
	// DiscSRPT is preemptive shortest-remaining-processing-time, using
	// the query's true sampled service time.
	DiscSRPT DisciplineKind = "srpt"
	// DiscSERPT is SRPT driven by a noisy prediction of the service
	// time instead of the true value — the discipline a deployed
	// predictor would actually run. PredictCV sets the noise.
	DiscSERPT DisciplineKind = "serpt"
	// DiscPS is egalitarian processor sharing: every query in the
	// system progresses simultaneously at rate min(1, Slots/n). PS does
	// not compose with sprint timeouts (there is no per-query "has
	// waited too long" moment when everyone is always in service), so
	// it requires sprinting disabled.
	DiscPS DisciplineKind = "ps"
)

// Discipline selects the ready-queue ordering for a run. The zero value
// is FIFO, so existing Params are unaffected.
type Discipline struct {
	Kind DisciplineKind
	// PredictCV is the coefficient of variation of SERPT's
	// multiplicative lognormal prediction noise (mean 1). Zero means
	// perfect predictions, degenerating SERPT to SRPT. Only valid for
	// DiscSERPT.
	PredictCV float64
}

// canonical returns d in normal form: an empty kind becomes FIFO.
func (d Discipline) canonical() Discipline {
	if d.Kind == "" {
		d.Kind = DiscFIFO
	}
	return d
}

func (d Discipline) validate() error {
	switch d.canonical().Kind {
	case DiscFIFO, DiscLIFO, DiscSRPT, DiscPS:
		//lint:ignore floateq rejecting any nonzero spelling, including NaN, is the point; no epsilon is meaningful here
		if d.PredictCV != 0 {
			return fmt.Errorf("queuesim: discipline %q does not take a prediction CV", d.Kind)
		}
	case DiscSERPT:
		if d.PredictCV < 0 || math.IsNaN(d.PredictCV) || d.PredictCV > maxPredictCV {
			return fmt.Errorf("queuesim: serpt prediction CV %v out of range [0, %v]", d.PredictCV, float64(maxPredictCV))
		}
	default:
		return fmt.Errorf("queuesim: unknown discipline %q", d.Kind)
	}
	return nil
}

// maxPredictCV bounds SERPT's noise spec, mirroring dist's maxCV guard.
const maxPredictCV = 1e6

// String renders the discipline in the spec grammar ParseDiscipline
// accepts, e.g. "fifo" or "serpt(0.3)".
func (d Discipline) String() string {
	d = d.canonical()
	if d.Kind == DiscSERPT && d.PredictCV > 0 {
		return fmt.Sprintf("serpt(%g)", d.PredictCV)
	}
	return string(d.Kind)
}

// ParseDiscipline parses a discipline spec: one of "fifo", "lifo",
// "srpt", "serpt", "serpt(cv)" or "ps", case-insensitively. The optional
// argument form is only valid for serpt, whose cv is the prediction
// noise's coefficient of variation. It never panics on malformed input.
func ParseDiscipline(spec string) (Discipline, error) {
	s := strings.TrimSpace(strings.ToLower(spec))
	name, arg := s, ""
	hasArg := false
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Discipline{}, fmt.Errorf("queuesim: discipline spec %q missing ')'", spec)
		}
		name, arg = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:len(s)-1])
		hasArg = true
	}
	switch DisciplineKind(name) {
	case DiscFIFO, DiscLIFO, DiscSRPT, DiscPS:
		if hasArg {
			return Discipline{}, fmt.Errorf("queuesim: discipline %q takes no arguments", name)
		}
		return Discipline{Kind: DisciplineKind(name)}, nil
	case DiscSERPT:
		d := Discipline{Kind: DiscSERPT}
		if arg != "" {
			cv, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return Discipline{}, fmt.Errorf("queuesim: serpt cv %q: %v", arg, err)
			}
			d.PredictCV = cv
		}
		if err := d.validate(); err != nil {
			return Discipline{}, err
		}
		return d, nil
	default:
		return Discipline{}, fmt.Errorf("queuesim: unknown discipline %q", spec)
	}
}

// qHeap is an intrusive index heap over the runner's query slab: it holds
// pool indices and orders them by the (key, tie) pair stored on the query
// itself, so pushing or popping a ready query never allocates. One heap
// per server replaces the FIFO ring when an ordered discipline runs.
type qHeap struct {
	idx []int32
}

func (h *qHeap) reset() { h.idx = h.idx[:0] }

// hless orders two pooled queries by their ready-queue key, breaking ties
// by the tie field (arrival id) so equal keys stay FIFO among themselves.
func (r *Runner) hless(a, b int32) bool {
	qa, qb := &r.pool[a], &r.pool[b]
	//lint:ignore floateq heap comparator must order exact keys; an epsilon would corrupt the deterministic tie-break
	if qa.key != qb.key {
		return qa.key < qb.key
	}
	return qa.tie < qb.tie
}

// hpush adds query index qi to heap h.
func (r *Runner) hpush(h *qHeap, qi int32) {
	h.idx = append(h.idx, qi)
	i := len(h.idx) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.hless(h.idx[i], h.idx[parent]) {
			break
		}
		h.idx[i], h.idx[parent] = h.idx[parent], h.idx[i]
		i = parent
	}
}

// hpop removes and returns the minimum-key query index.
func (r *Runner) hpop(h *qHeap) int32 {
	top := h.idx[0]
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && r.hless(h.idx[l], h.idx[smallest]) {
			smallest = l
		}
		if ri := 2*i + 2; ri < n && r.hless(h.idx[ri], h.idx[smallest]) {
			smallest = ri
		}
		if smallest == i {
			return top
		}
		h.idx[i], h.idx[smallest] = h.idx[smallest], h.idx[i]
		i = smallest
	}
}
