package trace

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/obs"
	"mdsprint/internal/queuesim"
)

// simQueries sizes simulatorEvents' run.
const simQueries = 300

// simulatorEvents returns the lifecycle events of a fixed seeded
// sprinting simulator run, in emission order.
func simulatorEvents(t *testing.T) []obs.QueryEvent {
	t.Helper()
	var events []obs.QueryEvent
	mu := 0.02
	_, err := queuesim.Run(queuesim.Params{
		ArrivalRate: 0.8 * mu,
		Service:     dist.LogNormalFromMeanCV(1/mu, 0.3),
		ServiceRate: mu,
		SprintRate:  1.6 * mu,
		Timeout:     60, BudgetSeconds: 300, RefillTime: 200,
		NumQueries: simQueries, Warmup: 0, Seed: 7,
		Tracer: obs.TracerFunc(func(e obs.QueryEvent) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSaveBytesGolden pins the exact bytes each saver writes, as an
// FNV-64a digest of the file: the JSONL event log of a seeded simulator
// run, a fixed decision ledger, a fixed span set and a dataset.
func TestSaveBytesGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		save func(path string) error
		want uint64
	}{
		{"events", func(p string) error { return SaveEvents(p, simulatorEvents(t)) }, 0x62d60456e042a22d},
		{"decisions", func(p string) error { return SaveDecisions(p, sampleDecisions()) }, 0x66f0e171f60c4f81},
		{"chrome", func(p string) error { return SaveChromeTrace(p, sampleSpans()) }, 0x95c1dbfa80e5531d},
		{"dataset", func(p string) error { return SaveDataset(p, sampleDataset()) }, 0xe6abda36e8a1efc0},
	} {
		path := filepath.Join(dir, c.name)
		if err := c.save(path); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		//lint:ignore errdrop fnv's Write is documented to never fail
		h.Write(data)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d bytes, digest %#016x, want %#016x", c.name, len(data), got, c.want)
		}
	}
}
