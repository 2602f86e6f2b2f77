// Command perfbench is the repository's benchmark program. It runs one
// workload for a fixed time from a seed, checks every output against a
// reference, and prints one JSON result line:
//
//	go run . --workload supremacy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced; with --trace 1 a separate traced run gives the per-layer
// metrics (spans around perfbench's calls into each layer, the
// run's obs event stream, a CPU profile and a kernel replay). Lines
// before the JSON line are a human-readable report. See NOTES.md for
// the workloads, the metric definitions and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	workdir string // scratch directory inside the checkout
}

// outcome is what a workload run returns: its counts, its metrics and
// report notes (sample counts, not-applicable and unresolved metrics).
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs untraced (end-to-end metrics) or traced (per-layer
// metrics).
type workload struct {
	run    func(cfg config) (*outcome, error)
	traced func(cfg config) (*outcome, error)
}

// endToEnd lists the metrics every untraced run reports, with units;
// BENCHMARK.json's end_to_end list matches it (a test checks).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_s.p50", "s"},
	{"latency_s.p75", "s"},
	{"cpu_s_per_item", "s"},
	{"peak_rss_mib", "MiB"},
	{"peak_nodes.max", "nodes"},
}

var workloads = map[string]workload{
	"supremacy": {run: supremacyWorkload.run, traced: supremacyWorkload.traced},
	"grover":    {run: groverWorkload.run, traced: groverWorkload.traced},
	"governed":  {run: governedWorkload.run, traced: governedWorkload.traced},
	"serve":     {run: runServe, traced: traceServe},
}

func main() {
	name := flag.String("workload", "", "workload: supremacy, grover, governed or serve")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for journals and checkpoints")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, workdir: dir}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	start := time.Now()
	out, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	for _, m := range want {
		if got, ok := out.metrics[m.name]; !ok || got.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s in %s\n", *name, m.name, m.unit)
			os.Exit(1)
		}
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	printReport(*name, out, time.Since(start))
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		res.Metrics[m.name] = out.metrics[m.name]
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport prints every metric by name with its unit, one a line.
func printReport(name string, out *outcome, wall time.Duration) {
	fmt.Printf("# workload %s: attempted %d, failed %d, fail_ratio %.4g, wall %.1fs\n",
		name, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)), wall.Seconds())
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.metrics[k]
		fmt.Printf("#   %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
