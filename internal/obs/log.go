package obs

import (
	"fmt"
	"io"
	"sync"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelError
	// LevelSilent suppresses everything.
	LevelSilent
)

// Logger is a small leveled logger for CLI narration. Results belong on
// stdout; everything a human reads about progress goes through a Logger
// on stderr so tool output composes with shell pipelines. A nil Logger
// discards everything, so library code can log unconditionally.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
}

// NewLogger returns a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

func (l *Logger) logf(level Level, prefix, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if level < l.level || l.w == nil {
		return
	}
	fmt.Fprintf(l.w, prefix+format+"\n", args...)
}

// Debugf logs fine-grained progress detail.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, "", format, args...) }

// Infof logs routine progress.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, "", format, args...) }

// Errorf logs failures.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, "error: ", format, args...) }
