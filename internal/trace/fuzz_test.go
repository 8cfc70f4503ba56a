package trace

import (
	"os"
	"path/filepath"
	"testing"

	"mdsprint/internal/obs"
)

// FuzzLoadEvents feeds arbitrary bytes through the JSONL event reader:
// it must never panic, and any log it accepts must round-trip through
// SaveEvents/LoadEvents unchanged.
func FuzzLoadEvents(f *testing.F) {
	valid := []obs.QueryEvent{
		{Type: obs.EvArrival, Time: 0.5, Query: 0, Value: 1.25},
		{Type: obs.EvServiceStart, Time: 0.5, Query: 0},
		{Type: obs.EvSprintStart, Time: 1.0, Query: 0, Value: 0.4},
		{Type: obs.EvDeparture, Time: 2.5, Query: 0, Value: 2.0},
	}
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.jsonl")
	if err := SaveEvents(seedPath, valid); err != nil {
		f.Fatal(err)
	}
	seedBytes, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedBytes)
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"type":"arrival","t":1e999}`))
	f.Add([]byte(`{"type":"arrival"`))
	f.Add([]byte("null\n"))
	f.Add([]byte("[1,2,3]\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip() // tmpfs hiccup, nothing to test
		}
		events, err := LoadEvents(path) // must never panic
		if err != nil {
			return
		}
		// Accepted input must round-trip exactly.
		out := filepath.Join(t.TempDir(), "out.jsonl")
		if err := SaveEvents(out, events); err != nil {
			t.Fatalf("SaveEvents on accepted input: %v", err)
		}
		again, err := LoadEvents(out)
		if err != nil {
			t.Fatalf("LoadEvents round-trip: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round-trip length %d != %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round-trip event %d: %+v != %+v", i, again[i], events[i])
			}
		}
	})
}
