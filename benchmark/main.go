// Command benchmark measures the BS fleet end to end and layer by layer.
//
// One invocation runs one workload for a given time:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up several times (reporting the
// median as setup_s), drives it untraced, checks every session's
// outcome and prints the end-to-end metrics. With --trace 1 it drives
// the workload untraced and then traced — the benchmark's wrappers
// around the connection, store and replica seams recording spans —
// checks that both runs end in the same bits, runs the layer drills and
// prints the per-layer metrics. The last line of standard output is the
// result as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/tensor"
)

// An untraced run builds its workload at least minSetups times and
// keeps going, up to maxSetups, until set-up has taken setupBudget in
// all; setup_s is the median. A 30 ms set-up timed once moves by a
// fifth between processes, the median of a dozen does not.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// issueSeconds is the per-workload size the issue was written for; the
// scale factor in the environment block is relative to it.
const issueSeconds = 30

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: live_fleet, clones_batched, ckpt_storm, churn, or all")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 16, "how long the measured phase of a run lasts")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer drills")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace file (JSON lines); default .bench_build/trace-<workload>.jsonl")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many sets and report, per metric, median, quartiles and whether the sets agree within the bound")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	if o.workload == "all" || o.repeat > 1 {
		return runMany(o)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	procs := runtime.GOMAXPROCS(0)
	tensor.SetWorkers(procs)
	printEnvironment(o, procs)
	res, err := runOne(o, w)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runOne runs one workload in the mode --trace asks for.
func runOne(o options, w *workloadDef) (*result, error) {
	dir := os.TempDir()
	fs, memory := fsType(dir)
	if w.needsDisk && memory {
		return nil, fmt.Errorf("temp dir %s is on %s: fsync is what this workload measures, point TMPDIR at a disk", dir, fs)
	}
	clk := clock{t0: time.Now()}
	var rep *report
	var err error
	if o.trace == 0 {
		rep, err = runUntraced(o, w, fullSizes, clk)
	} else {
		rep, err = runTraced(o, w, fullSizes, clk)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(w.name, rep.metrics, "")
	printMetrics(w.name, rep.info, "(not in the result line)")
	for _, p := range rep.ph.problems {
		fmt.Printf("CHECK FAILED  %s: %s\n", w.name, p)
	}
	res := &result{
		Correct:   len(rep.ph.problems) == 0,
		Attempted: rep.ph.attempted(),
		Failed:    rep.ph.failed(),
		Metrics:   make(map[string]metricValue, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res, nil
}

// report is what one run of one workload produced.
type report struct {
	metrics []metric // the result line's metrics
	info    []metric // printed only
	ph      *phase   // outcome counts and failed checks
}

// runUntraced is the end-to-end run: set up (repeatedly), measure, tear
// down.
func runUntraced(o options, w *workloadDef, sz sizes, clk clock) (*report, error) {
	var b *bench
	var times []float64
	for begin := time.Now(); len(times) < minSetups || (len(times) < maxSetups && time.Since(begin) < setupBudget); {
		if b != nil {
			b.f.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(o.seed, sz, clk, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer b.f.close()
	ph, err := runPhase(b, o.seconds)
	if err != nil {
		return nil, err
	}
	ms, info, err := endToEnd(ph, medianOf(times))
	if err != nil {
		return nil, err
	}
	return &report{metrics: ms, info: info, ph: ph}, nil
}

func printEnvironment(o options, procs int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fs, _ := fsType(os.TempDir())
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d tensor_workers=%d go=%s commit=%s tmp=%s (%s) scale=%.3g seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), procs, tensor.Workers(), runtime.Version(), commit, os.TempDir(), fs,
		o.seconds/issueSeconds, o.seed, o.seconds, o.trace)
}

func printMetrics(workload string, ms []metric, note string) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Printf("%-16s %-34s %16.6g %-8s %-10s %s\n", workload, m.name, m.value, m.unit, n, note)
	}
}
