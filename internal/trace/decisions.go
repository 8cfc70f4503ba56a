package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mdsprint/internal/online"
)

// SaveDecisions writes a decision ledger's records as JSONL, one
// DecisionRecord per line in ledger order.
func SaveDecisions(path string, recs []online.DecisionRecord) error {
	w, err := CreateEventLog(path)
	if err != nil {
		return err
	}
	for _, r := range recs {
		w.line(r)
	}
	return w.Close()
}

// line appends v as one JSON line.
func (w *EventWriter) line(v any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		_, err = w.bw.Write(append(data, '\n'))
	}
	if err != nil {
		w.err = err
	}
}

// LoadDecisions reads a JSONL decision log back into records.
func LoadDecisions(r io.Reader) ([]online.DecisionRecord, error) {
	dec := json.NewDecoder(r)
	var out []online.DecisionRecord
	for {
		var rec online.DecisionRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: decode decision %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}
