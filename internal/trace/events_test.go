package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

func TestSaveLoadEventsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "events.jsonl")
	events := []obs.QueryEvent{
		{Type: obs.EvArrival, Time: 1.5, Query: 0, Value: 10},
		{Type: obs.EvBudgetExhausted, Time: 2.25, Query: -1, Value: 3},
		{Type: obs.EvDeparture, Time: 4, Query: 0, Value: 2.5},
	}
	if err := SaveEvents(path, events); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("loaded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	// JSONL: one JSON object per line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(events) {
		t.Fatalf("file has %d lines, want %d", len(lines), len(events))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %q is not one JSON object", line)
		}
	}
}

func TestLoadEventsMissingFile(t *testing.T) {
	if _, err := LoadEvents(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}

func TestSaveEventsSimulatorRun(t *testing.T) {
	// A traced seeded run exported as JSONL has exactly one arrival and
	// one departure per simulated query.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := SaveEvents(path, simulatorEvents(t)); err != nil {
		t.Fatal(err)
	}
	events, err := LoadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.EventType]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	if counts[obs.EvDeparture] != simQueries {
		t.Fatalf("%d departures in the log, want %d (counts %v)", counts[obs.EvDeparture], simQueries, counts)
	}
	if counts[obs.EvArrival] != simQueries {
		t.Fatalf("%d arrivals in the log, want %d", counts[obs.EvArrival], simQueries)
	}
	if counts[obs.EvSprintStart] == 0 {
		t.Fatal("no sprints in a sprinting scenario")
	}
	if counts[obs.EvSprintStart] != counts[obs.EvSprintStop] {
		t.Fatalf("%d sprint starts vs %d stops", counts[obs.EvSprintStart], counts[obs.EvSprintStop])
	}
}
