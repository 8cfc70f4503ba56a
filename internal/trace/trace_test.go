package trace

import (
	"path/filepath"
	"testing"

	"mdsprint/internal/dist"
	"mdsprint/internal/profiler"
)

func sampleDataset() *profiler.Dataset {
	return &profiler.Dataset{
		MixName:        "Jacobi",
		MechName:       "DVFS",
		ServiceRate:    0.0141,
		MarginalRate:   0.0205,
		ServiceSamples: []float64{70.1, 71.5, 69.8},
		Observations: []profiler.Observation{
			{
				Cond: profiler.Condition{
					Utilization: 0.75, ArrivalKind: dist.KindExponential,
					Timeout: 60, RefillTime: 200, BudgetPct: 0.2,
				},
				ArrivalRate: 0.0106,
				MeanRT:      132.4,
				P95RT:       310.2,
				P99RT:       401.8,
			},
		},
		ProfilingSeconds: 25920,
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "jacobi.json")
	ds := sampleDataset()
	if err := SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MixName != ds.MixName || got.ServiceRate != ds.ServiceRate {
		t.Fatalf("identity lost: %+v", got)
	}
	if len(got.Observations) != 1 || got.Observations[0].MeanRT != 132.4 {
		t.Fatalf("observations lost: %+v", got.Observations)
	}
	if got.Observations[0].Cond.ArrivalKind != dist.KindExponential {
		t.Fatalf("arrival kind lost: %q", got.Observations[0].Cond.ArrivalKind)
	}
	if len(got.ServiceSamples) != 3 {
		t.Fatalf("service samples lost: %v", got.ServiceSamples)
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeJSON(path, map[string]string{"hello": "world"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(path); err == nil {
		t.Fatal("garbage dataset accepted")
	}
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A JSON value of the wrong shape fails at parse, before validation.
	malformed := filepath.Join(t.TempDir(), "malformed.json")
	if err := writeJSON(malformed, "not a dataset"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(malformed); err == nil {
		t.Fatal("malformed dataset accepted")
	}
}

func TestWriteJSONErrors(t *testing.T) {
	// Unserialisable value.
	if err := writeJSON(filepath.Join(t.TempDir(), "x.json"), func() {}); err == nil {
		t.Fatal("function value marshalled")
	}
	// Unwritable directory (a file where a directory is needed).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := writeJSON(blocker, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(blocker, "sub", "x.json"), 1); err == nil {
		t.Fatal("mkdir under a file succeeded")
	}
}
