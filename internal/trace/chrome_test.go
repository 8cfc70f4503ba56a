package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdsprint/internal/obs"
)

func sampleSpans() []obs.SpanData {
	return []obs.SpanData{
		{ID: 1, Name: "pipeline", StartNS: 0, EndNS: 5_000_000},
		{ID: 2, Parent: 1, Name: "calib.dataset", StartNS: 1_000, EndNS: 2_000_000, Attrs: []obs.Attr{
			{Key: "records", Kind: obs.AttrInt, Int: 3},
		}},
		{ID: 3, Parent: 2, Name: "sweep.eval", StartNS: 1_500, EndNS: 900_000, Err: "budget exhausted", Attrs: []obs.Attr{
			{Key: "cache", Kind: obs.AttrString, Str: "hit"},
			{Key: "timeout_s", Kind: obs.AttrFloat, Num: 42.5},
			{Key: "ok", Kind: obs.AttrBool, Bool: true},
		}},
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := sampleSpans()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"name":"sweep.eval"`, `"err":"budget exhausted"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome output missing %s:\n%s", want, out)
		}
	}
	back, err := LoadChromeTrace(&buf)
	if err != nil {
		t.Fatalf("LoadChromeTrace: %v", err)
	}
	// Export sorts by StartNS then ID; sampleSpans is already in that order.
	if !reflect.DeepEqual(back, spans) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, spans)
	}
}

func TestChromeTraceExactNanoseconds(t *testing.T) {
	// Sub-microsecond boundaries and a ns value a float64-µs field cannot
	// carry exactly: the args payload must preserve them bit-for-bit.
	spans := []obs.SpanData{{ID: 1, Name: "ns", StartNS: 9_007_199_254_740_993, EndNS: 9_007_199_254_740_995}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	back, err := LoadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].StartNS != spans[0].StartNS || back[0].EndNS != spans[0].EndNS {
		t.Fatalf("ns precision lost: %+v", back)
	}
}

func TestChromeTraceSortsDeterministically(t *testing.T) {
	unordered := []obs.SpanData{
		{ID: 3, Name: "c", StartNS: 10, EndNS: 20},
		{ID: 1, Name: "a", StartNS: 5, EndNS: 30},
		{ID: 2, Name: "b", StartNS: 10, EndNS: 15},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, unordered); err != nil {
		t.Fatal(err)
	}
	back, err := LoadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range back {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "a,b,c" {
		t.Fatalf("order %s, want a,b,c", got)
	}
	// And the input slice is not mutated.
	if unordered[0].Name != "c" {
		t.Fatalf("WriteChromeTrace mutated its input")
	}
}

func TestSaveChromeTraceFile(t *testing.T) {
	spans := sampleSpans()
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := SaveChromeTrace(path, spans); err != nil {
		t.Fatalf("SaveChromeTrace: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := LoadChromeTrace(f)
	if err != nil {
		t.Fatalf("LoadChromeTrace: %v", err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Fatalf("file round trip mismatch")
	}
}

func TestLoadChromeTraceSkipsForeignEvents(t *testing.T) {
	in := `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{}},
		{"name":"real","ph":"X","pid":1,"tid":1,"ts":0,"dur":1,"args":{"id":7,"start_ns":0,"end_ns":1000}}
	]}`
	back, err := LoadChromeTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ID != 7 || back[0].Name != "real" {
		t.Fatalf("foreign events mishandled: %+v", back)
	}
}

func TestLoadChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatalf("garbage accepted")
	}
}

// FuzzChromeTraceExport drives the export → re-import round trip with
// arbitrary span contents: export must never fail or panic, and the
// re-imported spans must match what was exported.
func FuzzChromeTraceExport(f *testing.F) {
	f.Add("sweep.eval", "cache", "hit", 3.5, int64(12), true, int64(100), int64(900))
	f.Add("", "", "", math.Inf(1), int64(-1), false, int64(-5), int64(-5))
	f.Add("a\xffb", "k\x00", "\xf0☃", math.NaN(), int64(1<<62), true, int64(1<<60), int64(0))
	f.Fuzz(func(t *testing.T, name, key, sval string, fval float64, ival int64, bval bool, startNS, endNS int64) {
		// Go's JSON encoder replaces invalid UTF-8 rather than erroring,
		// which would make the round trip lossy; sanitize like the tracer's
		// callers (span names and keys are compile-time literals in practice).
		spans := []obs.SpanData{{
			ID:      1,
			Name:    strings.ToValidUTF8(name, "\uFFFD"),
			StartNS: startNS,
			EndNS:   endNS,
			Attrs: []obs.Attr{
				{Key: strings.ToValidUTF8(key, "\uFFFD"), Kind: obs.AttrString, Str: strings.ToValidUTF8(sval, "\uFFFD")},
				{Key: "f", Kind: obs.AttrFloat, Num: fval},
				{Key: "i", Kind: obs.AttrInt, Int: ival},
				{Key: "b", Kind: obs.AttrBool, Bool: bval},
			},
		}}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, spans); err != nil {
			t.Fatalf("export: %v", err)
		}
		back, err := LoadChromeTrace(&buf)
		if err != nil {
			t.Fatalf("re-import: %v", err)
		}
		if len(back) != 1 {
			t.Fatalf("re-imported %d spans", len(back))
		}
		got, want := back[0], spans[0]
		if got.ID != want.ID || got.Name != want.Name || got.StartNS != want.StartNS || got.EndNS != want.EndNS {
			t.Fatalf("span mismatch: %+v != %+v", got, want)
		}
		if len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("attr count %d != %d", len(got.Attrs), len(want.Attrs))
		}
		for i := range want.Attrs {
			ga, wa := got.Attrs[i], want.Attrs[i]
			if ga.Key != wa.Key || ga.Kind != wa.Kind || ga.Str != wa.Str || ga.Int != wa.Int || ga.Bool != wa.Bool {
				t.Fatalf("attr %d: %+v != %+v", i, ga, wa)
			}
			if math.IsNaN(wa.Num) != math.IsNaN(ga.Num) || (!math.IsNaN(wa.Num) && ga.Num != wa.Num) {
				t.Fatalf("attr %d num: %v != %v", i, ga.Num, wa.Num)
			}
		}
	})
}
