// Command sprintctl is the operator's CLI for model-driven computational
// sprinting:
//
//	sprintctl workloads
//	    list the Table 1(C) workload catalog and mechanisms
//	sprintctl profile -workload Jacobi -mech DVFS -samples 80 -out ds.json
//	    profile a workload over the cluster-sampling grid
//	sprintctl predict -dataset ds.json -util 0.75 -timeout 60 -budget 0.2 -refill 200 [-model hybrid|noml]
//	    predict response time for one sprinting policy
//	sprintctl explore -dataset ds.json -util 0.8 -budget 0.3 -refill 600
//	    anneal the timeout space for the lowest expected response time
//	sprintctl disciplines -rate 0.016 -service 'lognormal(62.5,0.3)' -servers 2 -dispatch jsq
//	    compare queueing disciplines (fifo, lifo, srpt, serpt, ps) and
//	    multi-queue dispatchers head to head on one simulated workload
//	sprintctl tiers -service 'exponential(0.016)' -util-lo 0.3 -util-hi 0.9
//	    walk an operating range through the staged RT estimator and
//	    show which ladder tier answers where, at what estimated error
//	sprintctl colocate -combo 1
//	    plan burstable-instance colocation for a Figure 13 combo
//	sprintctl chaos -scenario model-divergence [-out timeline.json]
//	    replay a fault-injection scenario against the degradation
//	    controller and verify its scripted expectations ('chaos -list'
//	    enumerates scenarios; 'chaos -all' replays every one)
//	sprintctl monitor [-chaos <name>|all] [-addr host:port [-watch 2s]]
//	    kubenow-style health view: report only what's broken, stay
//	    quiet when healthy
//	sprintctl pipeline [-decisions-out decisions.jsonl]
//	    run profile → calibrate → sweep → explore → online end to end
//	    at a small scale (pair with -trace for a full span tree)
//	sprintctl sprintd -addr :8600 -tenants search,ads -snapshot state.json
//	    run the multi-tenant policy-serving daemon: admission control,
//	    bulkhead isolation, periodic crash-safety snapshots, graceful
//	    SIGTERM drain (monitor it with 'sprintctl monitor -addr ...')
//	sprintctl decide -addr localhost:8600 -tenant search -rate 0.6
//	    ask a running sprintd for one decision, retrying through sheds
//	sprintctl load -addr localhost:8600 -workers 4 -duration 5s
//	    drive closed-loop load at a sprintd (add -drop/-err for chaos)
//
// Profiling writes a JSON dataset; predict/explore train the hybrid model
// from it on the fly.
//
// Global flags (before the command):
//
//	-debug-addr host:port   serve /metrics (Prometheus text),
//	                        /debug/health, /debug/vars (expvar) and
//	                        /debug/pprof for live introspection of long
//	                        runs
//	-trace path             record span tracing for the whole run and
//	                        write a Chrome trace-event JSON on exit
//	-quiet                  suppress progress narration (errors only)
//	-v                      verbose narration
//	-version                print version and exit
//
// Results print to stdout; progress narration goes to stderr, so output
// composes with shell pipelines.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"mdsprint"
	"mdsprint/internal/colocate"
	"mdsprint/internal/core"
	"mdsprint/internal/dist"
	"mdsprint/internal/experiments"
	"mdsprint/internal/explore"
	"mdsprint/internal/lifecycle"
	"mdsprint/internal/mech"
	"mdsprint/internal/obs"
	"mdsprint/internal/profiler"
	"mdsprint/internal/sprint"
	"mdsprint/internal/trace"
	"mdsprint/internal/workload"
)

// version identifies sprintctl builds; the VCS revision is appended when
// the build has one embedded.
const version = "0.2.0"

// logg narrates progress on stderr. Commands write results to stdout
// only. The nil default (used by tests calling cmd* directly) discards
// narration.
var logg *obs.Logger

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main, factored for tests: it parses global flags, dispatches the
// subcommand and returns the process exit code.
func run(args []string) int {
	globals := flag.NewFlagSet("sprintctl", flag.ExitOnError)
	debugAddr := globals.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	quiet := globals.Bool("quiet", false, "suppress progress output (errors only)")
	verbose := globals.Bool("v", false, "verbose progress output")
	showVersion := globals.Bool("version", false, "print version and exit")
	tracePath := globals.String("trace", "", "record span tracing for the whole run and write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this path on exit")
	globals.Usage = usage
	if err := globals.Parse(args); err != nil {
		return 2
	}

	if *showVersion {
		fmt.Println(versionString())
		return 0
	}
	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	if *quiet {
		level = obs.LevelError
	}
	logg = obs.NewLogger(os.Stderr, level)

	if *tracePath != "" {
		obs.SetActiveSpanTracer(obs.NewSpanTracer(obs.SpanOptions{}))
		defer func() {
			t := obs.SetActiveSpanTracer(nil)
			spans := t.Drain()
			if err := trace.SaveChromeTrace(*tracePath, spans); err != nil {
				logg.Errorf("trace: %v", err)
			} else {
				logg.Infof("trace: %d span(s) written to %s", len(spans), *tracePath)
			}
		}()
	}

	if *debugAddr != "" {
		srv, err := startDebugServer(*debugAddr)
		if err != nil {
			logg.Errorf("sprintctl: %v", err)
			return 1
		}
		// Drain in-flight scrapes before exiting, briefly: a scraper
		// mid-request on SIGINT gets a complete response, a hung one
		// cannot hold the process hostage.
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(dctx); err != nil {
				logg.Errorf("debug server shutdown: %v", err)
			}
		}()
	}

	// A clean SIGINT/SIGTERM shutdown: long-running commands watch this
	// context and flush whatever metrics and trace output they have
	// accumulated before exiting (see internal/lifecycle).
	ctx, stop := lifecycle.SignalContext(context.Background())
	defer stop()

	rest := globals.Args()
	if len(rest) == 0 {
		usage()
		return 2
	}
	var err error
	switch rest[0] {
	case "workloads":
		err = cmdWorkloads()
	case "profile":
		err = cmdProfile(rest[1:])
	case "predict":
		err = cmdPredict(rest[1:])
	case "explore":
		err = cmdExplore(rest[1:])
	case "colocate":
		err = cmdColocate(rest[1:])
	case "disciplines":
		err = cmdDisciplines(rest[1:])
	case "tiers":
		err = cmdTiers(rest[1:])
	case "chaos":
		err = cmdChaos(ctx, rest[1:])
	case "monitor":
		err = cmdMonitor(ctx, rest[1:])
	case "pipeline":
		err = cmdPipeline(ctx, rest[1:])
	case "sprintd":
		err = cmdSprintd(ctx, rest[1:])
	case "decide":
		err = cmdDecide(ctx, rest[1:])
	case "load":
		err = cmdLoad(ctx, rest[1:])
	case "version":
		fmt.Println(versionString())
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sprintctl: unknown command %q\n", rest[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sprintctl: %v\n", err)
		return 1
	}
	return 0
}

// versionString renders the version plus the embedded VCS revision, when
// the binary was built from a checkout.
func versionString() string {
	v := "sprintctl " + version
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				v += " (" + s.Value[:12] + ")"
			}
		}
	}
	return v
}

// startDebugServer mounts the observability endpoints on addr and serves
// them in the background for the life of the process. Listening happens
// synchronously so port conflicts fail fast.
func startDebugServer(addr string) (*obs.DebugServer, error) {
	obs.PublishDefault()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	logg.Infof("debug endpoints on http://%s/metrics, .../debug/health, .../debug/pprof/", ln.Addr())
	return obs.NewDebugServer(ln, obs.DebugMux(obs.Default())), nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sprintctl [-debug-addr host:port] [-quiet|-v] <workloads|profile|predict|explore|disciplines|tiers|colocate|chaos|monitor|pipeline|sprintd|decide|load> [flags]")
	fmt.Fprintln(os.Stderr, "       sprintctl -version")
	fmt.Fprintln(os.Stderr, "run 'sprintctl <command> -h' for command flags")
}

func cmdWorkloads() error {
	fmt.Println("workloads (Table 1C, sustained/burst qph on DVFS):")
	for _, c := range workload.Catalog() {
		fmt.Printf("  %-12s %4.0f / %4.0f  (phases: %s)\n", c.Name, c.SustainedQPH, c.BurstQPH, c.Phases.Desc)
	}
	fmt.Println("mechanisms: DVFS, CoreScale, EC2DVFS, Throttle<pct> (e.g. Throttle20)")
	return nil
}

// resolveMechanism parses a mechanism name, including ThrottleNN.
func resolveMechanism(name string) (mech.Mechanism, error) {
	if strings.HasPrefix(name, "Throttle") {
		var pctVal float64
		if _, err := fmt.Sscanf(name, "Throttle%f", &pctVal); err != nil {
			return nil, fmt.Errorf("bad throttle mechanism %q (want e.g. Throttle20)", name)
		}
		return mech.NewThrottle(pctVal / 100), nil
	}
	return mech.ByName(name)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	workloadName := fs.String("workload", "Jacobi", "workload class or MixI/MixII")
	mechName := fs.String("mech", "DVFS", "sprinting mechanism")
	samples := fs.Int("samples", 80, "cluster-sampling conditions to profile")
	queries := fs.Int("queries", 1500, "queries per profiling run")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "dataset.json", "output dataset path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mix, err := mdsprint.WorkloadMix(*workloadName)
	if err != nil {
		return err
	}
	m, err := resolveMechanism(*mechName)
	if err != nil {
		return err
	}
	p := &profiler.Profiler{
		Mix: mix, Mechanism: m,
		QueriesPerRun: *queries, Replications: 2, Seed: *seed,
	}
	conds := profiler.PaperGrid().Sample(*samples, *seed+3)
	logg.Infof("profiling %s on %s over %d conditions...", mix.Name, m.Name(), len(conds))
	ds := p.Profile(conds)
	if err := trace.SaveDataset(*out, ds); err != nil {
		return err
	}
	fmt.Printf("service rate: %.2f qph   marginal sprint rate: %.2f qph (speedup %.2fx)\n",
		sprint.ToQPH(ds.ServiceRate), sprint.ToQPH(ds.MarginalRate), ds.MarginalSpeedup())
	fmt.Printf("simulated profiling time: %.1f hours\n", ds.ProfilingSeconds/3600)
	fmt.Printf("dataset written to %s\n", *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	dsPath := fs.String("dataset", "dataset.json", "profiled dataset (from sprintctl profile)")
	util := fs.Float64("util", 0.75, "arrival rate as a fraction of service rate")
	arrival := fs.String("arrival", "exponential", "arrival distribution: exponential, pareto, deterministic")
	timeout := fs.Float64("timeout", 60, "sprint timeout in seconds (negative disables)")
	budget := fs.Float64("budget", 0.2, "sprint budget as a fraction of capacity per refill window")
	refill := fs.Float64("refill", 200, "budget refill window in seconds")
	modelName := fs.String("model", "hybrid", "model: hybrid or noml")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := trace.LoadDataset(*dsPath)
	if err != nil {
		return err
	}
	var model core.Model
	switch *modelName {
	case "hybrid":
		logg.Infof("training hybrid model (calibrating effective sprint rates)...")
		model, err = mdsprint.TrainHybrid(ds, mdsprint.ModelOptions{SimQueries: 3000, SimReps: 2, Seed: *seed})
		if err != nil {
			return err
		}
	case "noml":
		model = &core.NoML{SimQueries: 3000, SimReps: 2, Seed: *seed}
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}
	sc := core.Scenario{Cond: profiler.Condition{
		Utilization: *util,
		ArrivalKind: dist.Kind(*arrival),
		Timeout:     *timeout,
		RefillTime:  *refill,
		BudgetPct:   *budget,
	}}
	pred, err := model.Predict(ds, sc)
	if err != nil {
		return err
	}
	fmt.Printf("%s prediction for %s:\n", model.Name(), sc.Cond)
	fmt.Printf("  mean RT %.1f s   p95 %.1f s   p99 %.1f s\n", pred.MeanRT, pred.P95RT, pred.P99RT)
	if pred.SprintRate > 0 {
		fmt.Printf("  sprint rate used: %.2f qph (marginal %.2f qph)\n",
			sprint.ToQPH(pred.SprintRate), sprint.ToQPH(ds.MarginalRate))
	}
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	dsPath := fs.String("dataset", "dataset.json", "profiled dataset")
	util := fs.Float64("util", 0.8, "arrival rate as a fraction of service rate")
	budget := fs.Float64("budget", 0.3, "sprint budget fraction")
	refill := fs.Float64("refill", 600, "refill window seconds")
	maxTimeout := fs.Float64("max-timeout", 300, "largest timeout to consider")
	iters := fs.Int("iters", 200, "annealing iterations")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := trace.LoadDataset(*dsPath)
	if err != nil {
		return err
	}
	logg.Infof("training hybrid model...")
	h, err := mdsprint.TrainHybrid(ds, mdsprint.ModelOptions{SimQueries: 3000, SimReps: 2, Seed: *seed})
	if err != nil {
		return err
	}
	// The first prediction error is kept and returned; the objective
	// reports +Inf so the search steers away from the failing point.
	var predErr error
	obj := func(to float64) float64 {
		pred, err := h.Predict(ds, core.Scenario{Cond: profiler.Condition{
			Utilization: *util, ArrivalKind: dist.KindExponential,
			Timeout: to, RefillTime: *refill, BudgetPct: *budget,
		}})
		if err != nil {
			if predErr == nil {
				predErr = err
			}
			return math.Inf(1)
		}
		return pred.MeanRT
	}
	logg.Infof("annealing timeouts in [0, %.0f] (%d iterations)...", *maxTimeout, *iters)
	res, err := explore.MinimizeTimeout(obj, 0, *maxTimeout, explore.Options{MaxIter: *iters, Seed: *seed})
	if predErr != nil {
		return fmt.Errorf("predicting during timeout search: %w", predErr)
	}
	if err != nil {
		return err
	}
	fmt.Printf("best timeout: %.1f s   expected mean RT: %.1f s   (%d model evaluations)\n",
		res.Point[0], res.RT, res.Evaluations)
	return nil
}

func cmdColocate(args []string) error {
	fs := flag.NewFlagSet("colocate", flag.ExitOnError)
	comboIdx := fs.Int("combo", 1, "Figure 13 combo: 1, 2 or 3")
	simQueries := fs.Int("queries", 4000, "simulated queries per SLO check")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	combos := experiments.Combos()
	if *comboIdx < 1 || *comboIdx > len(combos) {
		return fmt.Errorf("combo must be 1..%d", len(combos))
	}
	combo := combos[*comboIdx-1]
	est := colocate.SimEstimator{SimQueries: *simQueries, SimReps: 2, Seed: *seed}
	logg.Infof("planning %s under a %.0f%% response-time SLO...", combo.Name, (colocate.SLOFactor-1)*100)
	for _, planner := range []struct {
		name string
		p    colocate.Planner
	}{
		{"aws fixed policy", colocate.AWSPlanner(est)},
		{"model-driven budgeting", colocate.BudgetPlanner(est, colocate.AWSRefill)},
		{"model-driven sprinting", colocate.SprintPlanner(est, 60, *seed)},
	} {
		assigns, n := colocate.FillNode(combo.Workloads, planner.p)
		fmt.Printf("%s: hosts %d/%d on one node ($%.3f/hr)\n",
			planner.name, n, len(combo.Workloads), colocate.PricePerHour*float64(n))
		for _, a := range assigns {
			fmt.Printf("    %-12s util %.0f%%  %v\n", a.Workload.Name, a.Workload.Utilization*100, a.Plan)
		}
		fmt.Println()
	}
	return nil
}
