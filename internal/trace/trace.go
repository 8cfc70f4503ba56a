// Package trace persists profiling datasets as JSON so profiling (hours
// of simulated replay) and model training can be separated across tool
// invocations — the workflow of cmd/sprintctl. It also writes query event
// logs, decision ledgers and Chrome traces.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal %s: %w", path, err)
	}
	return writeFile(path, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	})
}

// writeFile is every saver's file writer. It creates path's directory,
// runs body on a buffered writer over path+".tmp", flushes and closes
// that file, and renames it over path, so a failed save leaves path as
// it was and removes the temporary file. It returns the first error;
// body's as body gave it.
func writeFile(path string, body func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	err = writeBuffered(f, body)
	if err == nil {
		if err = os.Rename(tmp, path); err != nil {
			err = fmt.Errorf("trace: %w", err)
		}
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return nil
}

// writeBuffered runs body on a buffered writer over w, then flushes and
// closes w, and returns the first error of the three.
func writeBuffered(w io.WriteCloser, body func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	err := body(bw)
	if err == nil {
		if err = bw.Flush(); err != nil {
			err = fmt.Errorf("trace: %w", err)
		}
	}
	if cerr := w.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: %w", cerr)
	}
	return err
}

// writeLines writes each item as one JSON line.
func writeLines[T any](w io.Writer, items []T) error {
	enc := json.NewEncoder(w)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
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
