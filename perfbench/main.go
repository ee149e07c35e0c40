// Command perfbench is dctopo's end-to-end benchmark. It runs one
// workload per process, times calls into the public functions of topo,
// tub, internal/match, mcf, expt and serve from outside, checks every
// answer, and prints one JSON result as its last line of output.
//
//	bash perfbench/run.sh --workload gap-jf300 --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// inputs with each layer called and timed on its own and prints the
// per-layer metrics. DESIGN.md records why each workload exists, the
// layers it exercises and skips, and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart stands in for process start: the first set-up is timed
// from here, so runtime start-up counts toward setup_s.
var processStart = time.Now()

// hardCap bounds one run: a run must exit within 180 s, so measurement
// stops here even if a class still lacks the samples its percentile
// needs (the run then fails instead of printing a withheld percentile).
const hardCap = 150 * time.Second

// setupReps is how many times each workload sets up; setup_s is the
// median, so a slow spell of the host over one or two starts does not
// move it.
const setupReps = 9

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string // directory for files a workload writes
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end values by name (untraced run)
	layer             map[string]float64 // per-layer values by name (traced run)
	lines             []string           // human-readable summary
	cpu               map[string]float64 // wall and CPU seconds per op kind and layer
	withheld          []string           // percentiles without the samples they need
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, cpu: map[string]float64{}}
}

func (r *report) logf(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// pct returns c's q-quantile and logs it with its sample count. A
// percentile without minBeyond samples beyond it is withheld, and the run
// then ends without a result line.
func (r *report) pct(c *Class, q float64) float64 {
	v, ok := c.Percentile(q)
	r.logf("%s", c.Summary(q))
	if !ok {
		r.withheld = append(r.withheld, c.Summary(q))
	}
	return v
}

// fail counts one failed op and says why.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if r.failed <= 5 {
		r.logf("FAIL: "+format, args...)
	}
}

// layerTime accumulates one layer's wall and CPU time over a run.
type layerTime struct {
	Class
	cpu float64 // ms
}

func (l *layerTime) add(wallMs, cpuMs float64) {
	l.Add(wallMs)
	l.cpu += cpuMs
}

// cpuRatio is CPU time over wall time: about 1 when one core is busy,
// up to GOMAXPROCS when the layer's workers really run in parallel.
func (l *layerTime) cpuRatio() float64 {
	if l.sum == 0 {
		return 0
	}
	return l.cpu / l.sum
}

// record files the layer's totals under name in the report's CPU table.
func (l *layerTime) record(r *report, name string) {
	r.cpu[name+".wall_s"] = l.sum / 1e3
	r.cpu[name+".cpu_s"] = l.cpu / 1e3
	r.cpu[name+".n"] = float64(l.N())
}

// stamp is a wall-clock and process-CPU reading.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero CPU
	// reading would only make ratios read 0, never fail a check.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return stamp{wall: time.Now(), cpu: cpu}
}

// since returns wall and CPU milliseconds elapsed since s.
func (s stamp) since() (wallMs, cpuMs float64) {
	n := now()
	return ms(n.wall.Sub(s.wall)), ms(n.cpu - s.cpu)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// setupTimes runs set-up setupReps times and returns the median seconds.
// The first repetition is timed from process start. Each repetition
// includes one discarded warm-up op, so lazy pools are full before
// timing starts and work a change moves into set-up shows here.
func setupTimes(fn func(rep int) error) (float64, []float64, error) {
	var secs []float64
	start := processStart
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			start = time.Now()
		}
		if err := fn(rep); err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	s := append([]float64(nil), secs...)
	sort.Float64s(s)
	return s[len(s)/2], secs, nil
}

// measure runs op closed loop, one at a time, until cfg.seconds have
// passed and enough reports that every percentile the workload prints
// has the samples it needs. It returns the op count and the wall and CPU
// time of the loop.
func measure(cfg config, enough func() bool, op func(i int)) (int, time.Duration, time.Duration) {
	s := now()
	i := 0
	for {
		el := time.Since(s.wall)
		if el.Seconds() >= cfg.seconds && enough() {
			break
		}
		if time.Since(processStart) > hardCap {
			break
		}
		op(i)
		i++
	}
	e := now()
	return i, e.wall.Sub(s.wall), e.cpu - s.cpu
}

// opsPerSec is one client's closed-loop rate: ops over the time spent in
// them. Work the benchmark does between ops, such as a forced collection,
// is not the program's and is left out.
func opsPerSec(c *Class) float64 { return float64(c.N()) / (c.sum / 1e3) }

var workloads = map[string]func(config) (*report, error){
	"gap-jf300":  runGap,
	"serve-jf1k": runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: gap-jf300 or serve-jf1k")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for files the run writes")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload gap-jf300|serve-jf1k, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r, err := run(cfg)
	if err == nil && len(r.withheld) > 0 {
		err = fmt.Errorf("too few samples: %s", strings.Join(r.withheld, "; "))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// emit prints the summary, the run details and, last, the result line.
func emit(cfg config, r *report) error {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	want, got := endToEnd, r.e2e
	if cfg.trace {
		want, got = perLayer, r.layer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: end-to-end metric %s not measured", cfg.workload, m.name)
		}
		// A per-layer metric the workload does not set belongs to a layer
		// it skips: it reads 0, the predicted no-change value.
		out[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-28s %16.6f %s\n", m.name, v, m.unit)
	}
	details := map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"cpu":        r.cpu,
	}
	b, err := json.Marshal(map[string]interface{}{"run": details})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	b, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// commit names the source revision; run.sh passes it in because the
// benchmark may be built from a tree that is not a git checkout.
func commit() string {
	if c := strings.TrimSpace(os.Getenv("PERFBENCH_COMMIT")); c != "" {
		return c
	}
	return "unknown"
}
