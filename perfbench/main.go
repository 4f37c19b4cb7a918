// Command perfbench is vexdb's repository benchmark. It generates every
// input from a seed, runs one closed-loop workload against vexdb's
// public surfaces (the embedded vexdb API and the internal/wire
// server), checks every result, and prints a report whose last line is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run times each layer call from this package's own
// code and reports the per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload voter_pipeline --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for this run (WAL, spill, traces)
	sz       sizes
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the report's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*options, *report) error{
	"voter_pipeline": runVoter,
	"analytic_mix":   runMix,
	"ingest_read":    runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the process exit code: 0
// when every operation and check passed, 1 when any failed, 2 for bad
// arguments.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	wl := fs.String("workload", "", "workload: voter_pipeline, analytic_mix or ingest_read")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 20, "how long the timed phase runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	size := fs.String("size", "full", "input sizes: full, or tiny for a smoke run")
	commit := fs.String("commit", "", "commit of the code under test, recorded in the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	sz, ok := sizeSets[*size]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown size %q\n", *size)
		return 2
	}
	if *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	base := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := &options{workload: *wl, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)),
		trace: *traceFlag == 1, work: work, sz: sz}
	rep := newReport(o)
	rep.prov = provenance(o, *root, *commit)
	if err := fn(o, rep); err != nil {
		rep.problem("run aborted: %v", err)
	}
	res := rep.finish()
	rep.print(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// report gathers one run's operations, checks and metrics.
type report struct {
	o         *options
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64 // end-to-end slots, see endToEnd
	layer     map[string]float64 // per-layer metrics, see layerMetrics
	lines     []string           // the workload's named figures, for people
	prov      []string
	heap      heapPeak
}

func newReport(o *options) *report {
	return &report{o: o, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation; a non-nil error counts it failed.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
		return false
	}
	return true
}

// problem records a failed check; any problem makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further problems omitted")
	}
}

// check records a problem unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problem(format, args...)
	}
}

// named adds a human-readable line for one of the workload's figures:
// its median, and for latencies the highest percentile with ten
// samples beyond it, each with its sample count.
func (r *report) named(name, unit string, s samples, withTail bool) {
	line := fmt.Sprintf("metric %-22s p50=%.4f %s n=%d", name, s.median(), unit, len(s))
	if withTail {
		if t := s.tailValue(); t.Percentile > 0 {
			line += fmt.Sprintf("  p%g=%.4f %s (%d beyond)", t.Percentile, t.Value, unit, t.Beyond)
		} else {
			line += "  tail=n/a (fewer than 20 samples)"
		}
	}
	r.lines = append(r.lines, line)
}

// finish turns the run into the result object. Every metric of the
// selected kind is present; a workload that measured none of its
// operations fails.
func (r *report) finish() result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted == 0 {
		r.problem("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	if r.o.trace {
		for _, m := range layerMetrics() {
			res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
	} else {
		r.e2e["peak_heap_mb"] = r.heap.mib()
		for _, m := range endToEnd {
			v := r.e2e[m.name]
			if v <= 0 && r.failed == 0 {
				r.problem("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	res.Correct = len(r.problems) == 0
	return res
}

func (r *report) print(w io.Writer) {
	for _, p := range r.prov {
		fmt.Fprintln(w, "#", p)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if r.o.trace {
		names := make([]string, 0, len(r.layer))
		for k := range r.layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if v := r.layer[k]; v != 0 {
				fmt.Fprintf(w, "layer %-36s %.6g\n", k, v)
			}
		}
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d failure_ratio=%.4f\n",
		r.attempted, r.failed, failureRatio(r.failed, r.attempted))
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
}
