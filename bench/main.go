// Command bench is the repository's end-to-end benchmark: four named
// workloads over the serving fleet and the trainer, composed as the
// qrec-* binaries compose them. BENCHMARK.json at the repository root
// names the command, the workloads and every metric; bench/README.md
// explains them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload cold_model --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh                       # all four workloads, both passes
//	bash bench/run.sh -repeat 10            # spread of every end-to-end metric over seeds 1-10
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -regen                # rewrite bench/testdata
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dataDir string // checked-in model and goldens
	outDir  string // traces and scratch files; inside the checkout, never committed
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"cold_model", "hot_session", "drift_batch", "offline_train"}

func runWorkload(name string, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range servingSpecs {
		if s.name == name {
			return s.run(cfg)
		}
	}
	if name == "offline_train" {
		return runTrain(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, end-to-end then traced)")
	seed := flag.Int64("seed", 1, "input seed: which requests of the pool are sent, and in what order")
	secs := flag.Float64("seconds", 16, "length of the measured part of a run (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, no tracing; 1: traced pass, per-layer metrics")
	dataDir := flag.String("data", "bench/testdata", "directory of the checked-in model and golden answers")
	outDir := flag.String("out", ".bench_build/out", "directory for trace-<workload>.jsonl and scratch files")
	regen := flag.Bool("regen", false, "retrain the checked-in model, re-record the golden answers and the pinned training quality, then exit")
	repeat := flag.Int("repeat", 0, "run every workload this many times, seeds --seed, --seed+1, ..., and report each end-to-end metric's spread against its bound")
	saveTo := flag.String("save", "", "with -repeat: also write the medians to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two files written by -repeat -save: bench -compare parent.json change.json")
	flag.Parse()

	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace != 0, dataDir: *dataDir, outDir: *outDir}
	var err error
	switch {
	case *regen:
		err = regenerate(cfg)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *repeat > 0:
		err = repeatRuns(cfg, *workload, *repeat, *saveTo)
	case *workload == "":
		err = runAll(cfg)
	default:
		var r *report
		if r, err = runWorkload(*workload, cfg); err == nil {
			r.print(os.Stdout)
			err = r.printResult(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload end to end and then traced, printing each
// report; the last line sums the attempts.
func runAll(cfg runConfig) error {
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			r, err := runWorkload(name, c)
			if err != nil {
				return err
			}
			r.print(os.Stdout)
			total.Correct = total.Correct && r.correct()
			total.Attempted += r.attempted
			total.Failed += r.failed
		}
	}
	return json.NewEncoder(os.Stdout).Encode(total)
}

// metric is one named measurement; n is its sample count, 0 when it is
// not a statistic of a sample.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report is what one run of one workload found.
type report struct {
	workload   string
	traced     bool
	metrics    []metric
	attempted  int
	failed     int
	notes      []string
	gateFailed bool
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a validity check that depends only on the inputs, never on
// timing: a run that fails one did not exercise what the workload exists
// to exercise, and reports correct=false. A gate on a steady state
// (steady) is only checked in runs long enough to reach it.
func (r *report) gate(what string, ok, steady bool) {
	if !steady {
		r.notef("gate: %s: not checked in a run this short", what)
		return
	}
	verdict := "holds"
	if !ok {
		verdict, r.gateFailed = "FAILS", true
	}
	r.notef("gate: %s: %s", what, verdict)
}

func (r *report) correct() bool { return r.failed == 0 && !r.gateFailed }

func (r *report) print(w *os.File) {
	pass := "end-to-end"
	if r.traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): attempted %d, failed %d, correct %t\n", r.workload, pass, r.attempted, r.failed, r.correct())
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	ms := append([]metric(nil), r.metrics...)
	if r.traced {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	}
	for _, m := range ms {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-6s%s\n", m.name, m.value, m.unit, samples)
	}
}

// result is the one-line JSON object that ends a single-workload run.
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

func (r *report) printResult(w *os.File) error {
	res := result{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		if _, dup := res.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return json.NewEncoder(w).Encode(res)
}
