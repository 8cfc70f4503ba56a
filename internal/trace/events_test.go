package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
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

func TestEventWriterStreamsSimulatorRun(t *testing.T) {
	// Acceptance check from the issue: a traced seeded run exported as
	// JSONL has exactly one departure per simulated query.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 300
	mu := 0.02
	_, err = queuesim.Run(queuesim.Params{
		ArrivalRate: 0.8 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.6 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: queries, Warmup: 0, Seed: 7,
		Tracer: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
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
	if counts[obs.EvDeparture] != queries {
		t.Fatalf("%d departures in the log, want %d (counts %v)", counts[obs.EvDeparture], queries, counts)
	}
	if counts[obs.EvArrival] != queries {
		t.Fatalf("%d arrivals in the log, want %d", counts[obs.EvArrival], queries)
	}
	if counts[obs.EvSprintStart] == 0 {
		t.Fatal("no sprints in a sprinting scenario")
	}
	if counts[obs.EvSprintStart] != counts[obs.EvSprintStop] {
		t.Fatalf("%d sprint starts vs %d stops", counts[obs.EvSprintStart], counts[obs.EvSprintStop])
	}
}

func TestEventWriterFlushAndReuse(t *testing.T) {
	var sb strings.Builder
	w := NewEventWriter(&sb)
	w.Event(obs.QueryEvent{Type: obs.EvArrival, Time: 1, Query: 0})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"arrival"`) {
		t.Fatalf("flushed output %q", sb.String())
	}
}
