package trace

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdsprint/internal/obs"
	"mdsprint/internal/online"
)

// These tests pin the savers' error paths: unusable paths, marshal
// failures, and write, flush and close failures of the file underneath.
// Every error reaches the caller, and a failed save leaves the target
// as it was.

// blockedPath returns a path whose parent is a regular file, so both
// MkdirAll and Create must fail under it.
func blockedPath(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(file, "nested", "out.json")
}

func TestSaveSinksRejectUnusablePaths(t *testing.T) {
	p := blockedPath(t)
	if err := SaveEvents(p, []obs.QueryEvent{{Type: "arrival"}}); err == nil {
		t.Error("SaveEvents accepted a path under a regular file")
	}
	if err := SaveChromeTrace(p, nil); err == nil {
		t.Error("SaveChromeTrace accepted a path under a regular file")
	}
	if err := SaveDecisions(p, nil); err == nil {
		t.Error("SaveDecisions accepted a path under a regular file")
	}
	// A directory as the target file fails at the rename, after the
	// temporary file was written; that file is removed again.
	dir := t.TempDir()
	if err := SaveEvents(dir, []obs.QueryEvent{{Type: "arrival"}}); err == nil {
		t.Error("SaveEvents accepted an existing directory as the file")
	}
	if _, err := os.Stat(dir + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed save left its temporary file: %v", err)
	}
}

func TestLoadersRejectMissingFiles(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.jsonl")
	if _, err := LoadEvents(missing); err == nil {
		t.Error("LoadEvents read a missing file")
	}
}

// failFile stands in for a file on a full disk: writes fail once more
// than okBytes have been written, and Close fails when closeErr is set.
type failFile struct {
	okBytes  int
	closeErr error
	closed   bool
}

func (f *failFile) Write(p []byte) (int, error) {
	if len(p) > f.okBytes {
		return 0, errors.New("disk full")
	}
	f.okBytes -= len(p)
	return len(p), nil
}

func (f *failFile) Close() error {
	f.closed = true
	return f.closeErr
}

// TestWriteBufferedReturnsEveryError feeds the savers' buffered writer a
// failing file: a write that spills the buffer, the final flush, the
// close, and the body's own marshal error each reach the caller, and the
// file is closed on every path.
func TestWriteBufferedReturnsEveryError(t *testing.T) {
	lines := func(recs []online.DecisionRecord) func(io.Writer) error {
		return func(w io.Writer) error { return writeLines(w, recs) }
	}
	many := make([]online.DecisionRecord, 200) // far more than bufio's 4 KiB buffer
	closeErr := errors.New("close failed")
	for _, c := range []struct {
		name string
		f    *failFile
		body func(io.Writer) error
		want string
	}{
		{"write", &failFile{}, lines(many), "disk full"},
		{"flush", &failFile{}, lines(sampleDecisions()), "disk full"},
		{"close", &failFile{okBytes: 1 << 20, closeErr: closeErr}, lines(sampleDecisions()), "close failed"},
		{"marshal", &failFile{okBytes: 1 << 20}, lines([]online.DecisionRecord{{Rate: math.NaN()}}), "unsupported value"},
	} {
		err := writeBuffered(c.f, c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if !c.f.closed {
			t.Errorf("%s: file left open", c.name)
		}
	}
	if err := writeBuffered(&failFile{okBytes: 1 << 20}, lines(many)); err != nil {
		t.Fatalf("healthy file: %v", err)
	}
}

// TestSaveFailureLeavesTargetIntact: a save that fails part way (a NaN
// is not representable in JSON) keeps the previous file's bytes and
// removes its temporary file.
func TestSaveFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	if err := SaveEvents(events, []obs.QueryEvent{{Type: "arrival", Time: 1}}); err != nil {
		t.Fatal(err)
	}
	decisions := filepath.Join(dir, "decisions.jsonl")
	if err := SaveDecisions(decisions, sampleDecisions()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		save func() error
	}{
		{events, func() error {
			return SaveEvents(events, []obs.QueryEvent{{Type: "arrival", Time: 2}, {Type: "arrival", Value: math.NaN()}})
		}},
		{decisions, func() error {
			return SaveDecisions(decisions, append(sampleDecisions(), online.DecisionRecord{Rate: math.NaN()}))
		}},
	} {
		before, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.save(); err == nil {
			t.Fatalf("%s: NaN saved without error", c.path)
		}
		after, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Errorf("%s: failed save changed the file:\n%s\nwas\n%s", c.path, after, before)
		}
		if _, err := os.Stat(c.path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: failed save left its temporary file: %v", c.path, err)
		}
	}
}
