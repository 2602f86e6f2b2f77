// Command ddbench regenerates the paper's evaluation artefacts:
//
//	Fig. 8  — speed-up of strategy k-operations over k
//	Fig. 9  — speed-up of strategy max-size over s_max
//	Table I — grover benchmarks with strategy DD-repeating
//	Table II — shor benchmarks with strategy DD-construct
//	Fig. 5  — DD size traces along Eq. 1 vs. combined operations
//	adaptive — ratio sweep of the adaptive strategy (ablation, not in "all")
//	enginestats — per-cache hit rates and GC behaviour of the DD engine
//	identity — identity-aware kernels before/after (ablation, not in "all")
//	reorder — variable-order ablation: fixed vs static vs sifting (not in "all")
//	planner — the strategy planner vs. every fixed strategy (not in "all")
//
// Usage:
//
//	ddbench -experiment all                 # quick suite (~10 minutes)
//	ddbench -experiment table2 -full        # include the paper's moduli
//	ddbench -experiment fig8 -reps 3        # tighter timing
//	ddbench -experiment fig9 -csvdir out/   # also write raw CSV data
//	ddbench -experiment fig8 -metrics-out m.json -pprof prof/
//	ddbench -experiment fig8 -parallel 4    # cells on a worker pool
//
// Every experiment measures its cells the same way (bench.Time), so
// -budget, -max-nodes (oom cells, no fallback), -soft-budget/-degrade,
// -reps and -progress apply to all of them; only Fig. 5's traced runs
// and Table II's DD-construct column run outside the budgets.
//
// -parallel N runs the independent cells of an experiment (baselines
// included) through a bounded worker pool, each cell on its own freshly
// created engine; the planner sweep, whose verdict is a timing ratio
// between cells, always runs serially. Marks and node counts are identical to serial mode —
// only the timing columns shift with machine load, so use -parallel for
// mark/telemetry sweeps and serial mode for headline speed-up numbers.
//
// Sweeps additionally write per-cell run telemetry (<name>_metrics.csv)
// next to the raw data when -csvdir is set. -metrics-out aggregates the
// engine counters of every measured run into one snapshot (JSON, or
// Prometheus text when the path ends in .prom); -progress streams
// per-run progress lines to stderr; -pprof captures CPU and heap
// profiles of the whole suite.
//
// Absolute times depend on the machine; the shapes (where the speed-up
// peaks, who wins by how much, which runs time out) are what the paper
// reports and what this harness reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", experimentUsage())
		full       = flag.Bool("full", false, "larger instances (several minutes; table2 adds the paper's moduli)")
		reps       = flag.Int("reps", 1, "timing repetitions (fastest run reported)")
		budget     = flag.Duration("budget", 30*time.Second, "per-run timeout (paper: 2 CPU hours)")
		maxNodes   = flag.Int("max-nodes", 0, "per-run live-node budget; exceeding runs are reported as oom cells (0 = unlimited)")
		softBudget = flag.Int("soft-budget", 0, "arm the memory-pressure governor at this live-node target; rescued cells are marked degraded instead of oom (0 = off unless -degrade is set)")
		degrade    = flag.String("degrade", "", "governor mode: off, ladder, or approx (degraded cells then carry their fidelity bound)")
		parallel   = flag.Int("parallel", 1, "run experiment cells through a worker pool of this many workers (cells stay deterministic: same marks and node counts as serial mode, only timings shift)")
		csvDir     = flag.String("csvdir", "", "also write raw experiment data as CSV files into this directory")
		metricsOut = flag.String("metrics-out", "", "write an aggregated metrics snapshot over all measured runs (JSON, or Prometheus text if the path ends in .prom)")
		progress   = flag.Bool("progress", false, "stream per-run progress lines to stderr")
		pprofDir   = flag.String("pprof", "", "write cpu.pprof and heap.pprof profiles of the suite into this directory")
	)
	flag.Parse()

	cfg := bench.Config{
		Reps: *reps, Budget: *budget, MaxNodes: *maxNodes,
		SoftBudget: *softBudget, Degrade: *degrade,
		Full: *full, Parallel: *parallel,
	}
	if *metricsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *progress {
		cfg.Events = obs.NewProgress(os.Stderr, 500*time.Millisecond)
	}
	if *pprofDir != "" {
		if err := os.MkdirAll(*pprofDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
			runtime.GC() // settle the heap so the profile reflects live data
			hf, err := os.Create(filepath.Join(*pprofDir, "heap.pprof"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
				return
			}
			if err := pprof.WriteHeapProfile(hf); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
			if err := hf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
		}()
	}
	defer func() {
		if *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*metricsOut, ".prom") {
			err = cfg.Metrics.WritePrometheus(f)
		} else {
			err = cfg.Metrics.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("[metrics snapshot written to %s]\n", *metricsOut)
	}()

	writeCSV := func(name, csv string) {
		if *csvDir == "" || csv == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("[raw data written to %s]\n", path)
	}

	ran := false
	for _, e := range experiments {
		if *experiment != e.name && !(*experiment == "all" && e.inAll) {
			continue
		}
		ran = true
		start := time.Now()
		tables, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if text := t.Text(); text != "" {
				fmt.Println(text)
			}
			name := e.name
			if t.Name != "" {
				name += "_" + t.Name
			}
			writeCSV(name, t.CSV())
		}
		fmt.Printf("[%s regenerated in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ddbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// experiments lists every experiment in the order "all" runs them;
// inAll=false marks the ablations beyond the paper, run only by name.
var experiments = []struct {
	name  string
	inAll bool
	run   func(bench.Config) ([]*bench.Table, error)
}{
	{"fig5", true, bench.Fig5},
	{"fig8", true, bench.Fig8},
	{"fig9", true, bench.Fig9},
	{"table1", true, func(cfg bench.Config) ([]*bench.Table, error) { return bench.Table1(cfg) }},
	{"table2", true, func(cfg bench.Config) ([]*bench.Table, error) { return bench.Table2(cfg) }},
	{"enginestats", true, bench.EngineStats},
	{"adaptive", false, bench.AdaptiveSweep},
	{"identity", false, bench.IdentitySweep},
	{"reorder", false, bench.ReorderSweep},
	{"planner", false, bench.PlannerSweep},
}

// experimentUsage is the -experiment flag's usage: "all" and every name.
func experimentUsage() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, " | ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddbench:", err)
	os.Exit(1)
}
