package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mdsprint/internal/obs"
)

// This file exports simulator lifecycle traces (obs.QueryEvent) as JSON
// Lines — one event per line, streamable and greppable, the format
// downstream per-query performance-prediction work consumes.

// SaveEvents writes events to path as JSONL (creating directories).
func SaveEvents(path string, events []obs.QueryEvent) error {
	return writeFile(path, func(w io.Writer) error { return writeLines(w, events) })
}

// LoadEvents reads a JSONL event log written by SaveEvents.
func LoadEvents(path string) ([]obs.QueryEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var events []obs.QueryEvent
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var e obs.QueryEvent
		if err := dec.Decode(&e); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: parse %s: %w", path, err)
		}
		events = append(events, e)
	}
}
