package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// definition is the part of BENCHMARK.json compare reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// boundedMetric is an end-to-end metric with its regression bound, the
// share of the baseline's median by which it may worsen.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (definition, error) {
	var def definition
	data, err := os.ReadFile(path)
	if err != nil {
		return def, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("parsing %s: %w", path, err)
	}
	return def, nil
}

// loadRecords reads a -record file into values[workload][metric], in
// run order.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading runs: %w", err)
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them: its
// default, exclusive method, which places the quartiles of n values at
// ranks (n+1)/4 and 3(n+1)/4. stats.Quantile interpolates at (n-1)q
// instead and gives narrower quartiles on the five to ten runs of a set.
// The bounds in BENCHMARK.json were fitted to spreads measured the
// exclusive way, so compare judges with the same definition. A single
// value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / q2
}

// verdict judges the runs b against the baseline runs a for one
// end-to-end metric: "unresolved" when either side's spread exceeds the
// bound (unless every run of b beats every run of a), else "worse" or
// "better" when b's median moved past the bound, else "within".
func verdict(a, b []float64, m boundedMetric) string {
	_, am, _ := quartiles(a)
	_, bm, _ := quartiles(b)
	worse := (bm - am) / am // share by which b's median is worse
	if m.Better == "higher" {
		worse = -worse
	}
	beats := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound:
		for _, x := range b {
			for _, y := range a {
				if !beats(x, y) {
					return "unresolved"
				}
			}
		}
		return "better"
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	default:
		return "within"
	}
}

// cmdCompare is `sprintbench compare A.jsonl B.jsonl`: for each metric ×
// workload it prints both sides' median and quartiles, and judges each
// end-to-end metric of B against A by the bounds in BENCHMARK.json. It
// exits 1 when any judgement is worse or unresolved.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sprintbench compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	def, err := loadDefinition(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "sprintbench: %v\n", err)
		return 2
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "sprintbench: %v\n", err)
		return 2
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "sprintbench: %v\n", err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tspread A/B\tbound\tverdict")
	status := 0
	row := func(w, name, unit string, va, vb []float64, judged *boundedMetric) {
		a1, am, a3 := quartiles(va)
		b1, bm, b3 := quartiles(vb)
		bound, v := "-", "-"
		if judged != nil {
			bound, v = fmt.Sprintf("%.0f%%", 100*judged.Bound), verdict(va, vb, *judged)
			if v == "worse" || v == "unresolved" {
				status = 1
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s/%s\t%s\t%s\n",
			w, name, unit, am, a1, a3, bm, b1, b3, share("%+.1f%%", bm-am, am), share("%.1f%%", a3-a1, am), share("%.1f%%", b3-b1, bm), bound, v)
	}
	for _, w := range def.Workloads {
		fmt.Fprintf(tw, "%s\truns: A %s, B %s\t\t\t\t\t\t\t\n", w.Name, runs(a[w.Name]), runs(b[w.Name]))
		for i := range def.EndToEnd {
			m := &def.EndToEnd[i]
			if va, vb := a[w.Name][m.Name], b[w.Name][m.Name]; len(va) > 0 && len(vb) > 0 {
				row(w.Name, m.Name, m.Unit, va, vb, m)
			}
		}
		for _, m := range def.PerLayer {
			if va, vb := a[w.Name][m.Name], b[w.Name][m.Name]; len(va) > 0 && len(vb) > 0 {
				row(w.Name, m.Name, m.Unit, va, vb, nil)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "sprintbench: %v\n", err)
		return 2
	}
	return status
}

// runs counts a workload's untraced and traced runs, by a metric each
// kind always reports.
func runs(metrics map[string][]float64) string {
	return fmt.Sprintf("%d untraced + %d traced", len(metrics["setup_s"]), len(metrics["bench.glue_frac"]))
}

// share renders x as a percentage of base with format, or "-" when base
// is not positive.
func share(format string, x, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf(format, 100*x/base)
}
