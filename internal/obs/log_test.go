package obs

import (
	"strings"
	"testing"
)

func TestLoggerLevels(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("hidden %d", 1)
	l.Infof("info %d", 2)
	l.Errorf("fail %d", 4)
	got := buf.String()
	if strings.Contains(got, "hidden") {
		t.Fatalf("debug line leaked at info level:\n%s", got)
	}
	for _, want := range []string{"info 2\n", "error: fail 4\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestLoggerSilent: the silent level writes nothing, errors included.
func TestLoggerSilent(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelSilent)
	l.Errorf("nothing")
	if got := buf.String(); got != "" {
		t.Fatalf("silent level still wrote: %q", got)
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var l *Logger
	// Must not panic; library code logs unconditionally.
	l.Debugf("a")
	l.Infof("b")
	l.Errorf("c")
}
