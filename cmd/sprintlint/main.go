// Command sprintlint runs this repository's project-specific static
// analyzers over every package in the module and reports file:line
// diagnostics. It is part of the tier-1 merge gate (make lint).
//
//	sprintlint                lint the module containing the working directory
//	sprintlint -C dir         lint the module containing dir
//	sprintlint -format sarif  SARIF 2.1.0 (CI annotation); also: text, json
//	sprintlint -only a,b      run only the named analyzers
//	sprintlint -list          describe the analyzer suite and exit
//	sprintlint -hotpaths      list the //sprint:hotpath roots and exit
//
// Suppression-debt ledger (see lint-baseline.json at the module root):
//
//	sprintlint -debt              report debt vs the baseline; exit 1 if any
//	                              analyzer's suppression count rose above it
//	sprintlint -baseline FILE     use FILE as the baseline (default
//	                              lint-baseline.json under -C)
//	sprintlint -write-baseline    rewrite the baseline from the current
//	                              suppression inventory
//
// Exit status: 0 clean, 1 diagnostics reported (or debt ceiling
// exceeded), 2 usage or load error.
//
// Diagnostics are suppressed per line with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory, and a suppression matching no diagnostic is itself an
// error (stale suppression) when the full suite runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mdsprint/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main factored for tests: it parses flags, lints, prints and
// returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sprintlint", flag.ContinueOnError)
	dir := fs.String("C", ".", "lint the module containing this directory")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	hotpaths := fs.Bool("hotpaths", false, "list //sprint:hotpath roots and exit")
	debt := fs.Bool("debt", false, "report suppression debt against the baseline")
	baselinePath := fs.String("baseline", "", "baseline file (default lint-baseline.json under -C)")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the baseline from the current suppressions")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "sprintlint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	res, err := lint.RunModule(*dir, lint.RunOpts{Only: names})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
		return 2
	}

	if *hotpaths {
		for _, root := range res.HotPathRoots {
			fmt.Fprintln(stdout, root)
		}
		return 0
	}
	if *writeBaseline || *debt {
		return runDebt(res, *dir, *baselinePath, *writeBaseline, stdout)
	}

	diags := res.Diagnostics
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
	case "sarif":
		data, err := lint.SARIF(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if *format == "text" {
			fmt.Fprintf(os.Stderr, "sprintlint: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// runDebt handles -debt and -write-baseline against the ledger file.
func runDebt(res *lint.RunResult, dir, baselinePath string, write bool, stdout io.Writer) int {
	if baselinePath == "" {
		baselinePath = filepath.Join(dir, "lint-baseline.json")
	}
	if write {
		data, err := lint.NewBaseline(res.Suppressions).Format()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(baselinePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d suppressions)\n", baselinePath, len(res.Suppressions))
		return 0
	}
	var base *lint.Baseline
	if data, err := os.ReadFile(baselinePath); err == nil {
		base, err = lint.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
			return 2
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
		return 2
	}
	report := lint.Debt(res.Suppressions, base)
	if _, err := io.WriteString(stdout, report.Format()); err != nil {
		fmt.Fprintf(os.Stderr, "sprintlint: %v\n", err)
		return 2
	}
	if !report.OK() {
		fmt.Fprintf(os.Stderr, "sprintlint: suppression debt exceeds baseline (%s); justify and refresh with -write-baseline\n",
			strings.Join(report.Exceeded, ", "))
		return 1
	}
	return 0
}
