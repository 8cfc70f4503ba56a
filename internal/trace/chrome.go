package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mdsprint/internal/obs"
)

// This file exports pipeline spans (obs.SpanData) in the Chrome
// trace-event format that chrome://tracing and Perfetto render as a flame
// view of the calibrate → sweep → explore → online decision tree.

// chromeEvent is one trace-event ("X" = complete event). ts/dur are
// microsecond floats per the format; Args carries the exact nanosecond
// times and span identity so LoadChromeTrace round-trips losslessly.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Args chromeArgs `json:"args"`
}

// chromeArgs is the per-event payload Perfetto shows on click.
type chromeArgs struct {
	ID      uint64     `json:"id"`
	Parent  uint64     `json:"parent,omitempty"`
	StartNS int64      `json:"start_ns"`
	EndNS   int64      `json:"end_ns"`
	Err     string     `json:"err,omitempty"`
	Attrs   []obs.Attr `json:"attrs,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes spans to w in Chrome trace-event format,
// ordered by start time then id so the output is deterministic.
func WriteChromeTrace(w io.Writer, spans []obs.SpanData) error {
	ordered := append([]obs.SpanData(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].StartNS != ordered[j].StartNS {
			return ordered[i].StartNS < ordered[j].StartNS
		}
		return ordered[i].ID < ordered[j].ID
	})
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(ordered))}
	for _, s := range ordered {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			PID:  1,
			TID:  1,
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.EndNS-s.StartNS) / 1e3,
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, StartNS: s.StartNS, EndNS: s.EndNS, Err: s.Err, Attrs: s.Attrs},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(ct); err != nil {
		return fmt.Errorf("trace: chrome encode: %w", err)
	}
	return nil
}

// SaveChromeTrace writes spans to path in Chrome trace-event format
// (creating directories), ready to open in chrome://tracing or Perfetto.
func SaveChromeTrace(path string, spans []obs.SpanData) error {
	return writeFile(path, func(w io.Writer) error { return WriteChromeTrace(w, spans) })
}

// LoadChromeTrace reads a trace written by WriteChromeTrace and
// reconstructs the exact spans from the args payload.
func LoadChromeTrace(r io.Reader) ([]obs.SpanData, error) {
	var ct chromeTrace
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace: chrome parse: %w", err)
	}
	spans := make([]obs.SpanData, 0, len(ct.TraceEvents))
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			continue // foreign traces may carry metadata events; skip them
		}
		spans = append(spans, obs.SpanData{
			ID:      e.Args.ID,
			Parent:  e.Args.Parent,
			Name:    e.Name,
			StartNS: e.Args.StartNS,
			EndNS:   e.Args.EndNS,
			Err:     e.Args.Err,
			Attrs:   e.Args.Attrs,
		})
	}
	return spans, nil
}
