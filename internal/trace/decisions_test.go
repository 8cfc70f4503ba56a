package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdsprint/internal/online"
)

func sampleDecisions() []online.DecisionRecord {
	return []online.DecisionRecord{
		{
			Seq: 0, VirtualTime: 4, Rate: 0.7, Timeout: 19.5, PredictedRT: 1.4,
			Tier: "hybrid", Level: 0, Retuned: true, BreakerState: "closed",
			CacheHitRatio: 0.5, SelectNanos: 1200, SearchNanos: 900,
			Fingerprint: "00aa00aa00aa00aa",
		},
		{
			Seq: 1, VirtualTime: 8, Rate: 0.9, Timeout: 21, PredictedRT: 2.1,
			Tier: "noml", Level: 1, Retuned: true, Demoted: true,
			BreakerState: "open", SelectNanos: 800,
			Fingerprint: "11bb11bb11bb11bb",
		},
	}
}

func TestSaveLoadDecisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	want := sampleDecisions()
	if err := SaveDecisions(path, want); err != nil {
		t.Fatalf("SaveDecisions: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := LoadDecisions(f)
	if err != nil {
		t.Fatalf("LoadDecisions: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadDecisionsRejectsGarbage(t *testing.T) {
	if _, err := LoadDecisions(strings.NewReader(`{"seq":0}` + "\nnot json\n")); err == nil {
		t.Fatal("garbage line decoded without error")
	}
}

func TestLoadDecisionsEmpty(t *testing.T) {
	got, err := LoadDecisions(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty log: got %v, %v", got, err)
	}
}
