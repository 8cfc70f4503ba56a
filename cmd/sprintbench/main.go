// Command sprintbench is mdsprint's benchmark. A run measures one
// workload for a fixed time, checks the program's outputs, and prints as
// its last line one JSON object: whether the outputs were correct, how
// many operations were attempted and failed, and the metrics.
//
//	sprintbench -workload pipeline -seed 1 -seconds 30 -trace 0
//	sprintbench -workload serve-retune -seed 1 -seconds 30 -trace 1 -trace-out trace.json
//	sprintbench compare A.jsonl B.jsonl
//
// The workloads are the paper's pipeline end to end (pipeline) and
// sprintd decides over loopback HTTP (serve-load, serve-retune). An
// untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) wraps every call into a layer in a span on a private
// obs.SpanTracer and reports per-layer metrics. README.md describes the
// workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(cmdCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(cmdRun(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    string
	traceOut string
	workDir  string
	log      io.Writer
}

// Metric is one measured value and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config) (*Result, error){
	"pipeline":     runPipeline,
	"serve-load":   func(ctx context.Context, c config) (*Result, error) { return runServe(ctx, c, serveLoad) },
	"serve-retune": func(ctx context.Context, c config) (*Result, error) { return runServe(ctx, c, serveRetune) },
}

// scales are the accepted -scale values: full is the benchmark, smoke
// is a reduced pipeline for the package's tests.
var scales = []string{"full", "smoke"}

// record is one line of a -record file, the input of compare.
type record struct {
	Workload string `json:"workload"`
	Result   Result `json:"result"`
}

// cmdRun parses the flags, runs one workload and prints its result.
func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sprintbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{log: stderr}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "base seed the workload's inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	fs.StringVar(&c.scale, "scale", "full", "input size: "+strings.Join(scales, ", "))
	fs.StringVar(&c.traceOut, "trace-out", "", "with -trace 1, also write the spans as a Chrome trace to this file")
	fs.StringVar(&c.workDir, "workdir", ".bench_build", "directory for the serve workloads' snapshot files")
	recordPath := fs.String("record", "", "append the result, tagged with its workload, to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[c.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "sprintbench: unknown workload %q (want one of %s)\n", c.workload, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "sprintbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case !(c.seconds > 0):
		fmt.Fprintf(stderr, "sprintbench: -seconds must be positive\n")
		return 2
	case !slices.Contains(scales, c.scale):
		fmt.Fprintf(stderr, "sprintbench: unknown scale %q (want one of %s)\n", c.scale, strings.Join(scales, ", "))
		return 2
	}
	c.traced = *trace == 1

	res, err := run(ctx, c)
	if err != nil {
		fmt.Fprintf(stderr, "sprintbench: %s: %v\n", c.workload, err)
		return 1
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: c.workload, Result: *res}); err != nil {
			fmt.Fprintf(stderr, "sprintbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "sprintbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// appendRecord appends one record line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(fmt.Errorf("writing record: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing record file: %w", err)
	}
	return nil
}
