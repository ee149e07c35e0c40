// Command topobench generates datacenter topologies, evaluates every
// capacity metric implemented in this repository (TUB, KSP-MCF throughput,
// bisection bandwidth, sparsest cut, the Singla bound, Hoefler's and
// Jain's methods), and re-runs the paper's tables and figures.
//
// Usage:
//
//	topobench gen     -family jellyfish -switches 128 -radix 16 -servers 8
//	topobench tub     -family xpander   -switches 512 -radix 32 -servers 10
//	topobench metrics -family jellyfish -switches 128 -radix 16 -servers 8
//	topobench mcf     -family jellyfish -switches 64  -radix 10 -servers 4 -k 16
//	topobench whatif  -family jellyfish -switches 200 -radix 12 -servers 4 [-link u:v | -switch x | -all]
//	topobench expt    [-list] [-json] [-cache DIR] <id>
//	topobench report  [-markdown] [-heavy] [-only id,id] [-cache DIR] [-convergence] > EXPERIMENTS.out
//
// Every subcommand accepts the shared observability flags: -v (log
// completed spans to stderr), -progress (stage progress with ETA on
// stderr), -trace FILE (JSONL trace of every span and solver convergence
// point), -metrics ADDR (serve counters/gauges as expvar JSON over HTTP),
// and -cpuprofile / -memprofile (pprof output).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dctopo/design"
	"dctopo/estimators"
	"dctopo/expt"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// flightDumpFn, when a flight recorder is installed, writes the ring to
// the dump file. Package-level so the panic path in main can reach it.
var flightDumpFn func(reason string)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	defer func() {
		if r := recover(); r != nil {
			if dump := flightDumpFn; dump != nil {
				dump("panic")
			}
			panic(r)
		}
	}()
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Stdout, os.Args[2:])
	case "tub":
		err = cmdTub(os.Stdout, os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Stdout, os.Args[2:])
	case "mcf":
		err = cmdMCF(os.Stdout, os.Args[2:])
	case "whatif":
		err = cmdWhatIf(os.Stdout, os.Args[2:])
	case "expt":
		err = cmdExpt(os.Stdout, os.Args[2:])
	case "serve":
		err = cmdServe(os.Stdout, os.Args[2:])
	case "cache":
		err = cmdCache(os.Stdout, os.Args[2:])
	case "design":
		err = cmdDesign(os.Stdout, os.Args[2:])
	case "report":
		err = cmdReport(os.Stdout, os.Args[2:])
	case "bench":
		err = cmdBench(os.Stdout, os.Args[2:])
	case "benchdiff":
		err = cmdBenchDiff(os.Stdout, os.Args[2:])
	case "version", "-version", "--version":
		printVersion(os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "topobench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `topobench <command> [flags]

commands:
  gen      generate a topology and print its summary
  tub      compute the throughput upper bound (Theorem 2.2)
  metrics  compute every capacity metric on one topology
  mcf      route the maximal permutation with KSP-MCF and report θ
  whatif   incremental failure analysis: -link u:v | -switch x | -all [-top N] [-sample N]
  expt     run one paper experiment by id (-list for details, -json, -params JSON, -cache DIR):
           %s
  serve    run the analysis as a long-running HTTP service (-addr, -cache DIR,
           -sync-deadline, -queue N, -executors N, -engines N, -drain DURATION)
  cache    manage a result-store directory (-ls | -rm NAME | -prune -max-bytes N)
  design   size a full-throughput fabric and plan expansions (§5-§6 design aid)
  report   run the full experiment suite (-heavy, -only id,id, -cache DIR)
  bench    run the gated kernel cases and write DIR/BENCH_<case>.json
           (-cases msbfs,ksp,gk,matching,whatif, -dir DIR)
  benchdiff  compare two bench JSON files and fail on ns/op regressions
             (-thresholds bench_thresholds.json, -hard 0.25)
  version  print build information

observability (all commands): -v, -progress, -trace FILE, -metrics ADDR,
-cpuprofile FILE, -memprofile FILE, -flight, -flight-dump FILE,
-flight-size N, -deadline DURATION (flight recorder is on by default for
report -heavy and bench; dump on SIGQUIT, deadline overrun, or panic)
`, strings.Join(expt.IDs(), "|"))
}

// printVersion reports the module version and, when built from a VCS
// checkout, the commit it was built from.
func printVersion(w io.Writer) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		fmt.Fprintln(w, "topobench (no build info)")
		return
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	rev, at := buildRevision(bi.Settings)
	fmt.Fprintf(w, "topobench %s", ver)
	if rev != "" {
		fmt.Fprintf(w, " (%s", shortRevision(rev))
		if at != "" {
			fmt.Fprintf(w, ", %s", at)
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintf(w, " %s\n", bi.GoVersion)
}

// buildRevision reads the VCS stamp out of the build settings: the
// commit, suffixed "+dirty" when the tree it was built from had
// uncommitted changes, and the commit time. Both are empty when the
// binary carries no VCS info (go run, test binaries).
func buildRevision(settings []debug.BuildSetting) (rev, at string) {
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev, at
}

// shortRevision abbreviates a commit hash to 12 digits, keeping any
// "+dirty" suffix.
func shortRevision(rev string) string {
	hash, suffix, _ := strings.Cut(rev, "+")
	if len(hash) > 12 {
		hash = hash[:12]
	}
	if suffix != "" {
		return hash + "+" + suffix
	}
	return hash
}

// topoFlags registers the shared topology-construction flags.
type topoFlags struct {
	family   string
	switches int
	radix    int
	servers  int
	seed     uint64
}

func (tf *topoFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&tf.family, "family", "jellyfish", "jellyfish | xpander | fatclique | clos | fattree")
	fs.IntVar(&tf.switches, "switches", 64, "approximate switch count (uni-regular families)")
	fs.IntVar(&tf.radix, "radix", 16, "switch radix R")
	fs.IntVar(&tf.servers, "servers", 8, "servers per switch H (uni-regular) ")
	fs.Uint64Var(&tf.seed, "seed", 1, "RNG seed")
}

// intFlag pairs a flag name with its parsed value for validation.
type intFlag struct {
	name  string
	value int
}

// checkPositive rejects non-positive values on flags that require a
// positive integer, failing fast with the flag name instead of producing
// empty path sets or degenerate topologies that only break deep inside
// the solvers.
func checkPositive(flags ...intFlag) error {
	for _, f := range flags {
		if f.value <= 0 {
			return fmt.Errorf("-%s must be a positive integer (got %d)", f.name, f.value)
		}
	}
	return nil
}

// runFlags registers the shared execution flags: pprof profiles and the
// observability sinks (-v, -progress, -trace, -metrics). The parallel
// stages size their worker pools from GOMAXPROCS.
type runFlags struct {
	cpuprofile string
	memprofile string
	verbose    bool
	progress   bool
	trace      string
	metrics    string
	flight     bool
	flightDump string
	flightSize int
	deadline   time.Duration
	// flightAuto is set (not flag-controlled) by the long-running
	// commands — report -heavy and bench — so the recorder is always on
	// when a run is expensive enough that losing its tail would hurt.
	flightAuto bool
	// flightRec is the recorder observe installed (nil when disabled);
	// cmdServe hands it to the server for /debug/flight and the
	// drain-overrun dump.
	flightRec *obs.Flight
}

func (rf *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&rf.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&rf.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.BoolVar(&rf.verbose, "v", false, "log completed spans (stage timings) to stderr")
	fs.BoolVar(&rf.progress, "progress", false, "print sweep progress with ETA to stderr")
	fs.StringVar(&rf.trace, "trace", "", "write a JSONL trace of spans and solver convergence to this file")
	fs.StringVar(&rf.metrics, "metrics", "", "serve counters/gauges as expvar JSON on this address (e.g. localhost:8080)")
	fs.BoolVar(&rf.flight, "flight", false, "keep the last -flight-size events in an in-memory flight recorder (dumped on SIGQUIT, -deadline overrun, or panic)")
	fs.StringVar(&rf.flightDump, "flight-dump", "", "write the flight recorder to this JSONL file on exit (implies -flight)")
	fs.IntVar(&rf.flightSize, "flight-size", obs.DefaultFlightSize, "flight recorder ring capacity in events (rounded up to a power of two)")
	fs.DurationVar(&rf.deadline, "deadline", 0, "dump the flight recorder and exit 2 if the run exceeds this duration (implies -flight)")
}

// flightEnabled reports whether any of the flag or auto paths asked for
// the recorder.
func (rf *runFlags) flightEnabled() bool {
	return rf.flight || rf.flightDump != "" || rf.deadline > 0 || rf.flightAuto
}

// profile starts CPU profiling when -cpuprofile was given and returns the
// stop function, which also snapshots the heap to -memprofile when set.
func (rf *runFlags) profile() (stop func(), err error) {
	stopCPU := func() {}
	if rf.cpuprofile != "" {
		f, err := os.Create(rf.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if rf.memprofile == "" {
			return
		}
		f, err := os.Create(rf.memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "topobench: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "topobench: memprofile:", err)
		}
	}, nil
}

// observe builds the instrumentation handle requested by the -v,
// -progress, -trace and -metrics flags (plus any extra sinks) and
// returns it with its teardown. When nothing was requested and no extra
// sink was passed it returns a nil handle — the disabled instance all
// instrumented code paths accept at zero cost. An extra sink always
// builds a live handle, so every instrumented layer then records its
// spans, counters and events.
func (rf *runFlags) observe(extra ...obs.Sink) (*obs.Obs, func(), error) {
	var sinks []obs.Sink
	var cleanup []func()
	done := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	if rf.trace != "" {
		f, err := os.Create(rf.trace)
		if err != nil {
			return nil, nil, err
		}
		j := obs.NewJSONL(f)
		sinks = append(sinks, j)
		// Close flushes the JSONL buffer and closes f (the Sink teardown
		// contract) — a bare f.Close() would drop the buffered tail.
		cleanup = append(cleanup, func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "topobench: trace:", err)
			}
		})
	}
	if rf.progress {
		sinks = append(sinks, obs.NewProgressLogger(os.Stderr))
	}
	if rf.verbose {
		sinks = append(sinks, obs.NewLogger(os.Stderr))
	}
	sinks = append(sinks, extra...)
	var fl *obs.Flight
	if rf.flightEnabled() {
		fl = obs.NewFlight(rf.flightSize)
		sinks = append(sinks, fl)
		rf.flightRec = fl
	}
	if len(sinks) == 0 && rf.metrics == "" {
		return nil, done, nil
	}
	o := obs.New(sinks...)
	if fl != nil {
		cleanup = append(cleanup, o.StartRuntimeSampler(time.Second))
		dump := func(reason string) {
			path := rf.flightDump
			if path == "" {
				path = "topobench-flight.jsonl"
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "topobench: flight dump:", err)
				return
			}
			defer f.Close()
			if err := fl.WriteDump(f, reason, o.Registry()); err != nil {
				fmt.Fprintln(os.Stderr, "topobench: flight dump:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "topobench: flight dump (%s): %s — %s\n", reason, path, fl)
		}
		flightDumpFn = dump
		cleanup = append(cleanup, func() { flightDumpFn = nil })
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGQUIT)
		go func() {
			if _, ok := <-sig; ok {
				dump("sigquit")
				os.Exit(2)
			}
		}()
		cleanup = append(cleanup, func() { signal.Stop(sig); close(sig) })
		if rf.deadline > 0 {
			t := time.AfterFunc(rf.deadline, func() {
				dump("deadline")
				os.Exit(2)
			})
			cleanup = append(cleanup, func() { t.Stop() })
		}
		if rf.flightDump != "" {
			// Appended last so done() runs it first, while the runtime
			// sampler gauges are still live.
			cleanup = append(cleanup, func() { dump("exit") })
		}
	}
	if rf.metrics != "" {
		o.PublishExpvar("dctopo")
		ln, err := net.Listen("tcp", rf.metrics)
		if err != nil {
			done()
			return nil, nil, err
		}
		// The expvar import (via package obs) registers /debug/vars on
		// the default mux.
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "topobench: metrics at http://%s/debug/vars\n", ln.Addr())
		cleanup = append(cleanup, func() { ln.Close() })
	}
	return o, done, nil
}

func (tf *topoFlags) build(o *obs.Obs) (*topo.Topology, error) {
	return expt.BuildAny(tf.family, tf.switches, tf.radix, tf.servers, tf.seed, o)
}

func cmdGen(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	edges := fs.Bool("edges", false, "also print the switch-to-switch links")
	out := fs.String("o", "", "write the topology to a file (.dot -> Graphviz, else text format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "hosts=%d mean-servers-per-switch=%.2f uni-regular=%v bi-regular=%v\n",
		len(t.Hosts()), t.MeanServersPerSwitch(), t.UniRegular(), t.BiRegular())
	if *edges {
		t.Graph().Edges(func(u, v, c int) {
			fmt.Fprintf(w, "%d %d %d\n", u, v, c)
		})
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(*out, ".dot") {
			err = t.WriteDOT(f)
		} else {
			err = t.WriteText(f)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *out)
	}
	return nil
}

func cmdTub(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tub", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	matcher := fs.String("matcher", "exact", "exact | greedy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	var m tub.Matcher
	switch *matcher {
	case "exact":
		m = tub.ExactMatcher
	case "greedy":
		m = tub.GreedyMatcher
	default:
		return fmt.Errorf("unknown matcher %q (want exact or greedy)", *matcher)
	}
	start := time.Now()
	res, err := tub.Bound(t, tub.Options{Matcher: m, Obs: o})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\nTUB = %.6f   (2E=%d, sum min(H)·L = %d, matcher=%s, %v)\n",
		t, res.Bound, res.TwoE, res.WeightedLen, res.Matcher, time.Since(start).Round(time.Millisecond))
	if res.Bound >= 1 {
		fmt.Fprintln(w, "verdict: may have full throughput (bound >= 1)")
	} else {
		fmt.Fprintln(w, "verdict: CANNOT have full throughput (bound < 1)")
	}
	return nil
}

func cmdMetrics(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	k := fs.Int("k", 8, "paths per pair for the flow heuristics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive(intFlag{"k", *k}); err != nil {
		return err
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintln(w, t)

	timed := func(name string, fn func() (string, error)) {
		start := time.Now()
		out, err := fn()
		el := time.Since(start).Round(time.Microsecond)
		if err != nil {
			fmt.Fprintf(w, "%-16s error: %v\n", name, err)
			return
		}
		fmt.Fprintf(w, "%-16s %-24s %v\n", name, out, el)
	}
	var ub *tub.Result
	timed("TUB", func() (string, error) {
		var err error
		ub, err = tub.Bound(t, tub.Options{Obs: o})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.4f", ub.Bound), nil
	})
	timed("bisection", func() (string, error) {
		b := estimators.Bisection(t, tf.seed)
		return fmt.Sprintf("cut=%d theta=%.4f full=%v", b.Cut, b.Theta, b.Full), nil
	})
	timed("sparsest-cut", func() (string, error) {
		sc, err := estimators.SparsestCut(t)
		return fmt.Sprintf("%.4f", sc), err
	})
	timed("singla[43]", func() (string, error) {
		s, err := estimators.Singla(t)
		return fmt.Sprintf("%.4f", s), err
	})
	if ub == nil {
		return nil
	}
	tm, err := ub.Matrix(t)
	if err != nil {
		return err
	}
	paths := mcf.KShortestObs(t, tm, *k, o)
	timed("hoefler", func() (string, error) {
		e, err := estimators.Hoefler(t, tm, paths)
		return fmt.Sprintf("min=%.4f mean=%.4f", e.MinRatio, e.MeanRatio), err
	})
	timed("jain", func() (string, error) {
		e, err := estimators.Jain(t, tm, paths)
		return fmt.Sprintf("min=%.4f mean=%.4f", e.MinRatio, e.MeanRatio), err
	})
	return nil
}

func cmdMCF(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("mcf", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	k := fs.Int("k", 16, "paths per pair (KSP-MCF)")
	method := fs.String("method", "auto", "auto | exact | approx")
	eps := fs.Float64("eps", 0.02, "Garg–Könemann ε: the solve stops once theta_ub <= (1+ε)·theta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive(intFlag{"k", *k}); err != nil {
		return err
	}
	if !(*eps > 0 && *eps < 1) {
		return fmt.Errorf("-eps must be in (0, 1) (got %g)", *eps)
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	ub, err := tub.Bound(t, tub.Options{Obs: o})
	if err != nil {
		return err
	}
	tm, err := ub.Matrix(t)
	if err != nil {
		return err
	}
	var m mcf.Method
	switch *method {
	case "auto":
		m = mcf.Auto
	case "exact":
		m = mcf.Exact
	case "approx":
		m = mcf.Approx
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	start := time.Now()
	paths := mcf.KShortestObs(t, tm, *k, o)
	d, err := mcf.ThroughputDetail(t, tm, paths, mcf.Options{Method: m, Eps: *eps, Obs: o})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\nKSP-MCF (K=%d): theta = %.4f   theta_ub = %.4f%s   TUB = %.4f   gap = %.4f   (%v)\n",
		t, *k, d.Theta, d.ThetaUB, gkSummary(d), ub.Bound, ub.Bound-d.Theta, time.Since(start).Round(time.Millisecond))
	return nil
}

// gkSummary renders the stop phase and the certifying window (0 = the
// full history) with how the Garg–Könemann solve stopped; empty when
// the exact backend solved the instance.
func gkSummary(d *mcf.Detail) string {
	if d.Stop == "" {
		return ""
	}
	return fmt.Sprintf("   phases = %d   window = %d (%s)", d.Phases, d.Window, d.Stop)
}

// cmdExpt runs one registered experiment by id (the id may come before
// or after the flags). -list prints the registry instead of running;
// -json emits the result's deterministic payload instead of tables;
// -cache DIR replays a previously stored result without recomputation.
func cmdExpt(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("expt", flag.ContinueOnError)
	var rf runFlags
	rf.register(fs)
	list := fs.Bool("list", false, "list every registered experiment id and exit")
	jsonOut := fs.Bool("json", false, "emit the deterministic JSON payload instead of rendered tables")
	params := fs.String("params", "", "JSON params overriding the registered defaults (@FILE reads them from a file)")
	cache := fs.String("cache", "", "persist/replay results in this directory (content-addressed by id+params)")
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" {
		id = fs.Arg(0)
	}
	if *list {
		for _, e := range expt.Experiments() {
			heavy := ""
			if e.Heavy {
				heavy = " [heavy]"
			}
			fmt.Fprintf(w, "%-10s %s%s\n", e.ID, e.Title, heavy)
		}
		return nil
	}
	if id == "" {
		return fmt.Errorf("expt needs an experiment id (see `topobench expt -list`)")
	}
	e, ok := expt.Lookup(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (see `topobench expt -list`)", id)
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	ropt := expt.RunOptions{Obs: o, Memo: &expt.Memo{Obs: o}}
	if *cache != "" {
		ropt.Store = expt.NewStore(*cache, o)
		defer storeSummary(ropt.Store)
	}
	var raw []byte
	if *params != "" {
		if strings.HasPrefix(*params, "@") {
			raw, err = os.ReadFile((*params)[1:])
			if err != nil {
				return err
			}
		} else {
			raw = []byte(*params)
		}
	}
	ex, err := expt.Execute(e, raw, ropt)
	if err != nil {
		return err
	}
	if *jsonOut {
		fmt.Fprintf(w, "%s\n", ex.Payload)
		return nil
	}
	for _, t := range ex.Result.Tables() {
		fmt.Fprintln(w, t.String())
	}
	return nil
}

// storeSummary reports the store's cache counters on stderr, so a user
// (or the CI resume job) can tell replayed steps from recomputed ones.
func storeSummary(s *expt.Store) {
	fmt.Fprintf(os.Stderr, "topobench: store: hits=%d misses=%d\n", s.Hits(), s.Misses())
}

func cmdReport(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var rf runFlags
	rf.register(fs)
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	heavy := fs.Bool("heavy", false, "also run the paper-scale demonstrations (minutes)")
	convergence := fs.Bool("convergence", false, "append a table of MCF convergence trajectories (rounds, dual, theta_lb, theta_ub per solve)")
	cache := fs.String("cache", "", "persist finished steps in this directory; a repeated or interrupted report replays them")
	only := fs.String("only", "", "comma-separated experiment ids to run (see `topobench expt -list`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Heavy reports run for minutes: keep the flight recorder on so a
	// hang or OOM kill still leaves a black box to read.
	rf.flightAuto = *heavy
	opt := expt.ReportOptions{
		Markdown: *markdown,
		Heavy:    *heavy,
		Progress: os.Stderr,
	}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			opt.Only = append(opt.Only, strings.TrimSpace(id))
		}
	}
	var extra []obs.Sink
	if *convergence {
		opt.Convergence = &expt.ConvergenceRecorder{}
		extra = append(extra, opt.Convergence)
	}
	o, done, err := rf.observe(extra...)
	if err != nil {
		return err
	}
	defer done()
	opt.Obs = o
	if *cache != "" {
		opt.Store = expt.NewStore(*cache, o)
		defer storeSummary(opt.Store)
	}
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	return expt.Report(w, opt)
}

func cmdDesign(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	servers := fs.Int("servers", 8192, "required server count N")
	radix := fs.Int("radix", 32, "switch radix")
	target := fs.Int("target", 0, "future server count to plan expansion for (0 = none)")
	floor := fs.Float64("floor", 1.0, "required worst-case throughput (1 = full throughput)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPositive(intFlag{"servers", *servers}, intFlag{"radix", *radix}); err != nil {
		return err
	}
	_, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	spec := design.Spec{Servers: *servers, Radix: *radix, Seed: *seed}
	if *floor != 1 {
		spec.Objective = design.ThroughputAtLeast
		spec.Target = *floor
	}
	fmt.Fprintf(w, "cheapest designs for N=%d, R=%d, TUB >= %.2f:\n", *servers, *radix, *floor)
	for _, row := range design.Compare(spec) {
		if row.Err != nil {
			fmt.Fprintf(w, "  %-10s %v\n", row.Name, row.Err)
			continue
		}
		fmt.Fprintf(w, "  %-10s %5d switches  H=%-3d TUB=%.3f\n", row.Name, row.Switches, row.H, row.TUB)
	}
	if *target > 0 {
		for _, f := range []expt.Family{expt.FamilyJellyfish, expt.FamilyXpander} {
			s := spec
			s.Family = f
			plan, err := design.PlanExpansion(s, *target)
			if err != nil {
				fmt.Fprintf(w, "expansion (%s): %v\n", f, err)
				continue
			}
			fmt.Fprintf(w, "expansion plan (%s) to N=%d: deploy H=%d (%d -> %d switches; TUB %.3f -> %.3f)\n",
				f, *target, plan.ServersPerSwitch, plan.InitialSwitches, plan.TargetSwitches,
				plan.TUBAtInitial, plan.TUBAtTarget)
			if plan.NaiveH > plan.ServersPerSwitch {
				fmt.Fprintf(w, "  naive day-one choice H=%d would end at TUB=%.3f after growth — plan ahead (§5.1)\n",
					plan.NaiveH, plan.NaiveTUBTarget)
			}
		}
	}
	return nil
}
