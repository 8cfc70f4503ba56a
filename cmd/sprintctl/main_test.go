package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mdsprint"
	"mdsprint/internal/trace"
)

func TestResolveMechanism(t *testing.T) {
	for _, name := range []string{"DVFS", "CoreScale", "EC2DVFS"} {
		m, err := resolveMechanism(name)
		if err != nil || m.Name() != name {
			t.Fatalf("resolveMechanism(%s) = %v, %v", name, m, err)
		}
	}
	m, err := resolveMechanism("Throttle20")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "Throttle20%" {
		t.Fatalf("throttle name %q", m.Name())
	}
	if _, err := resolveMechanism("ThrottleXY"); err == nil {
		t.Fatal("bad throttle accepted")
	}
	if _, err := resolveMechanism("Nitro"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

// TestResolveMix pins how many classes each name accepted by
// 'profile -workload' resolves to.
func TestResolveMix(t *testing.T) {
	for name, components := range map[string]int{
		"Jacobi": 1, "MixI": 2, "MixII": 4,
	} {
		mix, err := mdsprint.WorkloadMix(name)
		if err != nil {
			t.Fatalf("WorkloadMix(%s): %v", name, err)
		}
		if len(mix.Components) != components {
			t.Fatalf("%s has %d components, want %d", name, len(mix.Components), components)
		}
	}
	if _, err := mdsprint.WorkloadMix("NoSuch"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestProfilePredictRoundTrip(t *testing.T) {
	// End-to-end through the CLI's internals: profile a tiny dataset to
	// disk, reload it, train the hybrid model, predict.
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.json")
	if err := cmdProfile([]string{
		"-workload", "Jacobi", "-mech", "DVFS",
		"-samples", "10", "-queries", "300", "-out", path,
	}); err != nil {
		t.Fatal(err)
	}
	ds, err := trace.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.MixName != "Jacobi" || len(ds.Observations) != 10 {
		t.Fatalf("dataset %s with %d observations", ds.MixName, len(ds.Observations))
	}
	if err := cmdPredict([]string{
		"-dataset", path, "-util", "0.6", "-timeout", "60",
		"-budget", "0.2", "-refill", "200", "-model", "noml",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestExploreReturnsPredictionError checks a prediction failure inside
// the timeout search comes back as the command's error, not a panic.
func TestExploreReturnsPredictionError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := cmdProfile([]string{
		"-workload", "Jacobi", "-samples", "10", "-queries", "300", "-out", path,
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("explore -util 0 panicked: %v", r)
		}
	}()
	err := cmdExplore([]string{"-dataset", path, "-util", "0", "-iters", "5"})
	if err == nil {
		t.Fatal("explore -util 0 succeeded, want the prediction error")
	}
	if !strings.Contains(err.Error(), "predicting during timeout search") {
		t.Fatalf("error %q does not name the failing search", err)
	}
}
