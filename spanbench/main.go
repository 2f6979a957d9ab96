// Command spanbench is the repository's benchmark. It drives the public
// geospanner facade through two workloads — churn-steady and churn-burst,
// each a durable topology service under churn with crash recoveries and
// cold library builds in between — checks every output, and prints the
// end-to-end metrics; with -trace 1 it instead drives the same inputs
// through the layer calls the facade makes and prints per-layer metrics.
// README.md describes the workloads and metrics.
//
// Run it from the repository root:
//
//	bash spanbench/run.sh --workload churn-steady --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workDir holds the per-run scratch files (write-ahead logs, crash
// copies) and the span files of traced runs. It is relative to the
// repository root the benchmark runs from.
const workDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	dir     string // scratch directory of this run, removed at exit
	spans   string // file the traced run writes its spans to
}

var workloads = map[string]func(cfg config, rep *report) error{
	"churn-steady": func(cfg config, rep *report) error { return runWorkload(churnSteady, cfg, rep) },
	"churn-burst":  func(cfg config, rep *report) error { return runWorkload(churnBurst, cfg, rep) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: churn-steady or churn-burst")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "spanbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "spanbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "spanbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	if cfg.trace {
		cfg.spans = filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	rep := newReport(stdout)
	if err := runWorkload(cfg, rep); err != nil {
		rep.fail("%s: %v", *name, err)
	}
	return rep.finish()
}

// report collects what a run prints: human-readable lines, determinism
// lines (identical across runs at one seed), metrics, and the operation
// tally.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	errs      []string
	metrics   map[string]metricValue
	det       []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: make(map[string]metricValue)}
}

// logf prints an informational line.
func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// detf records and prints a determinism line: every exact count, digest
// and fingerprint of a run, which must repeat exactly at one seed.
func (r *report) detf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.det = append(r.det, line)
	fmt.Fprintf(r.w, "det %s\n", line)
}

// op counts one attempted operation and, when err is non-nil, one failed
// one.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

// check counts one output check as an operation; a failed check fails it.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

// fail records a failure that is not an operation of its own (a workload
// that could not finish, a metric that could not be computed).
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// metric returns the recorder of one metric, taking a (value, error)
// pair so it composes with Median and Percentile. A metric that could not
// be computed fails the run instead of printing a made-up value.
func (r *report) metric(name, unit string) func(float64, error) {
	return func(v float64, err error) {
		if err != nil {
			r.fail("metric %s: %v", name, err)
			return
		}
		r.metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

// finish prints the metrics and the result line and returns the exit
// code: 0 only when every operation and check passed.
func (r *report) finish() int {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(r.w, "metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(r.w, "error %s\n", e)
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.failed++
	}
	correct := r.failed == 0
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(r.w, "error %v\n", err)
		return 1
	}
	fmt.Fprintln(r.w, string(out))
	if !correct {
		return 1
	}
	return 0
}
