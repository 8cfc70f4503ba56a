// Package trace persists profiling datasets as JSON so profiling (hours
// of simulated replay) and model training can be separated across tool
// invocations — the workflow of cmd/sprintctl. It also writes query event
// logs, decision ledgers and Chrome traces.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mdsprint/internal/profiler"
)

// SaveDataset writes a profiled dataset to path (creating directories).
func SaveDataset(path string, ds *profiler.Dataset) error {
	return writeJSON(path, ds)
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(path string) (*profiler.Dataset, error) {
	var ds profiler.Dataset
	if err := readJSON(path, &ds); err != nil {
		return nil, err
	}
	if ds.ServiceRate <= 0 || len(ds.ServiceSamples) == 0 {
		return nil, fmt.Errorf("trace: %s is not a valid dataset", path)
	}
	return &ds, nil
}

func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("trace: parse %s: %w", path, err)
	}
	return nil
}
