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
	return writeFile(path, func(w io.Writer) error { return writeLines(w, recs) })
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
