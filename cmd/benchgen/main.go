// Command benchgen regenerates every table and figure of the paper's
// evaluation and writes the formatted results to stdout (and optionally a
// file). This is the tool behind EXPERIMENTS.md. Everything that depends
// on the host — per-step and total wall times, Figure 11's throughput
// table and the ablation study's timing table — goes to stderr, so
// stdout from two runs, at one commit or at two, diffs clean when their
// results agree.
//
// Usage:
//
//	benchgen [-scale quick|full] [-only fig7,fig13] [-out results.txt]
//
// The full scale reproduces the EXPERIMENTS.md record and takes tens of
// minutes; quick matches the unit-test scale and finishes in a couple of
// minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mdsprint/internal/experiments"
)

// step is one regenerable experiment.
type step struct {
	name string
	run  func(lab *experiments.Lab) (experiments.Table, error)
}

func steps() []step {
	var fig13Cache *experiments.Fig13Result
	fig13 := func(lab *experiments.Lab) experiments.Fig13Result {
		if fig13Cache == nil {
			r := experiments.Fig13(lab)
			fig13Cache = &r
		}
		return *fig13Cache
	}
	return []step{
		{"fig1", func(l *experiments.Lab) (experiments.Table, error) {
			return experiments.Fig1(l).Table(), nil
		}},
		{"table1c", func(l *experiments.Lab) (experiments.Table, error) {
			return experiments.Table1C(l).Table(), nil
		}},
		{"mmk", func(l *experiments.Lab) (experiments.Table, error) {
			return experiments.MMKValidation(l).Table(), nil
		}},
		{"fig7", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig7(l)
			return r.Table(), err
		}},
		{"fig8a", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig8A(l)
			return r.Table(), err
		}},
		{"fig8b", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig8B(l)
			return r.Table(), err
		}},
		{"fig8c", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig8C(l)
			return r.Table(), err
		}},
		{"fig9", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig9(l)
			return r.Table(), err
		}},
		{"fig10", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig10(l)
			return r.Table(), err
		}},
		{"datascaling", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.DataScaling(l)
			return r.Table(), err
		}},
		{"fig11", func(l *experiments.Lab) (experiments.Table, error) {
			// Predictions per minute are host wall time: the whole
			// table goes to stderr and the step adds nothing to stdout.
			fmt.Fprintf(os.Stderr, "%s\n", experiments.Fig11(l).Table())
			return experiments.Table{}, nil
		}},
		{"fig12a", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig12A(l)
			return r.Table(), err
		}},
		{"fig12b", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig12B(l)
			return r.Table(), err
		}},
		{"fig12c", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Fig12C(l)
			return r.Table(), err
		}},
		{"fig13", func(l *experiments.Lab) (experiments.Table, error) {
			return fig13(l).Table(), nil
		}},
		{"tail", func(l *experiments.Lab) (experiments.Table, error) {
			return experiments.TailLatency(l).Table(), nil
		}},
		{"fig14", func(l *experiments.Lab) (experiments.Table, error) {
			return experiments.Fig14(fig13(l)).Table(), nil
		}},
		{"ablations", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.Ablations(l)
			fmt.Fprintf(os.Stderr, "%s\n", r.TimingTable())
			return r.Table(), err
		}},
		{"disciplines", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.DisciplineSweep(l, nil)
			return r.Table(), err
		}},
		{"tailacc", func(l *experiments.Lab) (experiments.Table, error) {
			r, err := experiments.TailAccuracy(l)
			return r.Table(), err
		}},
	}
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated subset of experiments to run")
	outFlag := flag.String("out", "", "also write results to this file")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "benchgen: unknown scale %q (quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	selected := map[string]bool{}
	if *onlyFlag != "" {
		for _, name := range strings.Split(*onlyFlag, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}

	var out io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	lab := experiments.NewLab(scale)
	fmt.Fprintf(out, "# Model-driven computational sprinting — experiment regeneration (scale=%s)\n\n", scale.Name)
	start := time.Now()
	for _, s := range steps() {
		if len(selected) > 0 && !selected[s.name] {
			continue
		}
		stepStart := time.Now()
		tab, err := s.run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %s failed: %v\n", s.name, err)
			os.Exit(1)
		}
		if tab.Title != "" {
			fmt.Fprintf(out, "%s\n", tab.String())
		}
		fmt.Fprintf(os.Stderr, "[%s took %s]\n", s.name, time.Since(stepStart).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "total: %s\n", time.Since(start).Round(time.Second))
}
