// Package bench defines the benchmark workloads and the experiment
// harness that regenerates every table and figure of the paper's
// evaluation (Figs. 8 and 9, Tables I and II, plus the Fig. 5 size
// trace) and the ablations beyond it. Every experiment is a grid of
// workloads × configurations measured cell by cell through Time and
// reported as Tables. Absolute times differ from the paper's machine;
// the harness reports the same quantities (speed-ups over the
// sequential baseline, per-strategy runtimes) so the shapes can be
// compared directly.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/hamiltonian"
	"repro/internal/obs"
	"repro/internal/qft"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// Workload is one deterministic benchmark instance: Run simulates it
// once under the given options (a fresh engine per run unless the
// options carry one).
type Workload struct {
	Name string
	Run  func(opt core.Options) error
}

// Config scales the experiment suite.
type Config struct {
	// Reps is the number of timing repetitions; the minimum is reported.
	Reps int
	// Budget caps a single simulation run; runs exceeding it are
	// reported as timeouts (the paper's ">7200s" rows).
	Budget time.Duration
	// MaxNodes caps the live DD nodes of a single run; runs exceeding it
	// are reported as "oom" cells (the memory analogue of Budget).
	// Strategy fallback is disabled so the cell reflects the strategy as
	// configured. Zero means unlimited.
	MaxNodes int
	// SoftBudget arms the memory-pressure governor for every measured
	// run (see core.Options.SoftBudget): cells degrade in stages near
	// the budget instead of aborting at it. Degraded-but-finished cells
	// carry a distinct mark. Clamped to MaxNodes when both are set.
	SoftBudget int
	// Degrade selects the governor mode ("", "off", "ladder" or
	// "approx"; see core.Options.Degrade).
	Degrade string
	// Full selects the larger instances (several minutes of total
	// runtime instead of tens of seconds).
	Full bool
	// Parallel runs experiment cells through a bounded worker pool of
	// this many workers (internal/batch), each cell on its own freshly
	// created engine. Values <= 1 keep the serial cell order. Marks and
	// node counts are identical to serial mode; only wall-clock timings
	// (and thus speed-up columns) shift with machine load. MaxNodes
	// stays a per-run budget — it is deliberately not split across
	// workers, so oom marks cannot depend on the worker count.
	Parallel int
	// Metrics, when non-nil, aggregates run telemetry from every measured
	// run into one shared registry (see internal/obs).
	Metrics *obs.Registry
	// Events, when non-nil, additionally receives the structured event
	// stream of every measured run.
	Events obs.Sink
}

// DefaultConfig returns the quick configuration used by cmd/ddbench.
func DefaultConfig() Config {
	return Config{Reps: 1, Budget: 30 * time.Second}
}

func (c Config) reps() int {
	if c.Reps < 1 {
		return 1
	}
	return c.Reps
}

// GroverWorkload returns the grover_<n> benchmark (marked element fixed
// per size for determinism).
func GroverWorkload(n int) Workload {
	marked := uint64(0x5a5a5a5a5a5a5a5a) & ((1 << uint(n)) - 1)
	return circuitWorkload(grover.Circuit(n, marked, 0))
}

// circuitWorkload simulates c with core.Run under the circuit's name.
func circuitWorkload(c *circuit.Circuit) Workload {
	return Workload{
		Name: c.Name,
		Run: func(opt core.Options) error {
			_, err := core.Run(c, opt)
			return err
		},
	}
}

// ShorWorkload returns the gate-level shor_<N>_<a> benchmark
// (Beauregard circuit, 2n+3 qubits, fixed measurement seed).
func ShorWorkload(modN, a uint64) Workload {
	return Workload{
		Name: fmt.Sprintf("shor_%d_%d", modN, a),
		Run: func(opt core.Options) error {
			_, err := shor.SimulateGateLevel(modN, a, opt, rand.New(rand.NewSource(1)))
			return err
		},
	}
}

// QFTWorkload returns the qft_<n> benchmark (quantum Fourier transform
// with final swaps, applied to the |0…0> state).
func QFTWorkload(n int) Workload {
	return circuitWorkload(qft.Circuit(n, true))
}

// SupremacyWorkload returns the supremacy_<depth>_<qubits> benchmark.
func SupremacyWorkload(rows, cols, depth int, seed int64) Workload {
	return circuitWorkload(supremacy.Circuit(rows, cols, depth, seed))
}

// FigWorkloads is the benchmark mix used for the Fig. 8 / Fig. 9
// parameter sweeps — all three families of the paper.
func FigWorkloads(full bool) []Workload {
	ws := []Workload{
		GroverWorkload(14),
		GroverWorkload(16),
		ShorWorkload(15, 7),
		ShorWorkload(21, 2),
		SupremacyWorkload(4, 4, 12, 7),
		SupremacyWorkload(4, 4, 16, 7),
	}
	if full {
		ws = append(ws,
			GroverWorkload(18),
			ShorWorkload(33, 5),
			ShorWorkload(55, 6),
			SupremacyWorkload(4, 5, 14, 7),
			TFIMWorkload(14, 2, 24),
		)
	}
	return ws
}

// Measurement is one timed run.
type Measurement struct {
	Seconds  float64
	TimedOut bool
	OOM      bool // node budget exceeded (cfg.MaxNodes)
	Canceled bool // run cancelled (fail-fast batch abort, ^C)
	Parked   bool // memory-pressure governor parked the run
	// Degraded marks a run that finished, but only because the
	// memory-pressure governor intervened; FidelityBound is the run's
	// cumulative fidelity lower bound (1 when every measure was exact).
	Degraded      bool
	FidelityBound float64
	Err           error
	// Cell carries the run's telemetry totals (Valid=false when the run
	// died before emitting a run_end event). Aborted cells keep the
	// partial run's counters.
	Cell CellMetrics
	// Stats is the engine's counter snapshot after the run: the totals
	// of every simulation the workload ran on it.
	Stats dd.Stats
}

// Mark classifies the measurement for table cells: "" for a clean run,
// "timeout", "oom", "canceled", "parked", "error", or — for runs the
// memory-pressure governor rescued — "degraded" / "degraded(f≥X)" with
// the fidelity bound when approximation lowered it below 1. Sweeps
// record the mark per cell instead of aborting, so one blown
// configuration cannot kill a whole experiment.
func (m Measurement) Mark() string {
	switch {
	case m.TimedOut:
		return "timeout"
	case m.OOM:
		return "oom"
	case m.Canceled:
		return "canceled"
	case m.Parked:
		return "parked"
	case m.Err != nil:
		return "error"
	case m.Degraded && m.FidelityBound > 0 && m.FidelityBound < 1:
		return fmt.Sprintf("degraded(f≥%.3g)", m.FidelityBound)
	case m.Degraded:
		return "degraded"
	}
	return ""
}

// Time runs w under opt, repeating cfg.Reps times and keeping the
// fastest run. A run that exceeds cfg.Budget reports a timeout; one
// that exceeds cfg.MaxNodes reports an OOM. Other failures are captured
// in Err rather than propagated, so sweeps degrade per cell.
//
// Every state Time touches — the rep deadline, the run_end capture, the
// reported telemetry cell — is local to one repetition, so concurrent
// Time calls (batch-executed sweep cells) cannot cross-contaminate, and
// the reported Cell always belongs to the rep whose timing is reported.
func Time(w Workload, opt core.Options, cfg Config) Measurement {
	best := Measurement{Seconds: math.Inf(1)}
	for i := 0; i < cfg.reps(); i++ {
		m := timeOnce(w, opt, cfg)
		if m.Mark() != "" {
			return m
		}
		if m.Seconds < best.Seconds {
			best = m
		}
	}
	return best
}

// timeOnce performs one timed repetition with rep-local deadline and
// telemetry capture. The options value is copied, never mutated in
// place, so the caller's opt survives across reps and across
// concurrently measured cells.
func timeOnce(w Workload, opt core.Options, cfg Config) Measurement {
	// Harvest run totals from the run_end event; core emits it even for
	// aborted runs, so timeout/oom cells still carry their counters.
	capture := &runEndCapture{}
	sinks := obs.MultiSink{capture}
	if opt.EventSink != nil {
		sinks = append(sinks, opt.EventSink)
	}
	if cfg.Events != nil {
		sinks = append(sinks, cfg.Events)
	}
	opt.EventSink = sinks
	if opt.Metrics == nil {
		opt.Metrics = cfg.Metrics
	}
	if cfg.Budget > 0 {
		// The deadline is armed per repetition, at the moment the run
		// actually starts — a batch-executed cell must not burn its budget
		// sitting in the pool queue.
		opt.Deadline = time.Now().Add(cfg.Budget)
	}
	if cfg.MaxNodes > 0 {
		if opt.MaxNodes == 0 || opt.MaxNodes > cfg.MaxNodes {
			opt.MaxNodes = cfg.MaxNodes
		}
		// The cell reports whether the strategy as configured fits the
		// budget; silent degradation would blur the comparison.
		opt.DisableFallback = true
	}
	if cfg.SoftBudget > 0 || cfg.Degrade != "" {
		opt.SoftBudget = cfg.SoftBudget
		opt.Degrade = cfg.Degrade
		if opt.MaxNodes > 0 && opt.SoftBudget > opt.MaxNodes {
			opt.SoftBudget = opt.MaxNodes
		}
	}
	// Collect and return freed pages before the clock starts, in the
	// spirit of testing.B's pre-run GC: a sweep cell must not pay GC
	// debt or allocator state for garbage the previous cell left behind
	// (combine-all cells retire with multi-GB heaps), and the order of
	// cells must not bias the comparison.
	debug.FreeOSMemory()
	start := time.Now()
	if opt.Engine == nil {
		// The fresh engine core.Run would create — built inside the
		// clock as that one is — held here so the cell can report the
		// engine's own counters.
		opt.Engine = dd.New()
	}
	err := w.Run(opt)
	elapsed := time.Since(start).Seconds()
	var m Measurement
	if err != nil {
		m = classify(err, elapsed, cfg)
	} else {
		m = Measurement{Seconds: elapsed}
	}
	m.Cell = capture.cell(m.Seconds)
	m.Stats = opt.Engine.Stats()
	if err == nil && m.Cell.Degradations > 0 {
		m.Degraded = true
		m.FidelityBound = m.Cell.FidelityBound
	}
	return m
}

// classify maps a run failure onto the measurement marks. The typed
// *core.RunError carries the exact failure kind — including for
// batch-executed cells, whose errors may additionally wrap pool
// context — with the sentinel checks kept as a fallback for workloads
// that re-wrap errors without preserving the RunError.
func classify(err error, elapsed float64, cfg Config) Measurement {
	var re *core.RunError
	if errors.As(err, &re) {
		switch re.Kind {
		case core.FailureDeadline:
			return Measurement{Seconds: cfg.Budget.Seconds(), TimedOut: true}
		case core.FailureBudget:
			return Measurement{Seconds: elapsed, OOM: true, Err: err}
		case core.FailureCanceled:
			return Measurement{Seconds: elapsed, Canceled: true, Err: err}
		case core.FailurePressure:
			return Measurement{Seconds: elapsed, Parked: true, Err: err}
		}
		return Measurement{Seconds: elapsed, Err: err}
	}
	switch {
	case errors.Is(err, core.ErrDeadlineExceeded):
		return Measurement{Seconds: cfg.Budget.Seconds(), TimedOut: true}
	case errors.Is(err, core.ErrBudgetExceeded):
		return Measurement{Seconds: elapsed, OOM: true, Err: err}
	case errors.Is(err, core.ErrCanceled):
		return Measurement{Seconds: elapsed, Canceled: true, Err: err}
	}
	return Measurement{Seconds: elapsed, Err: err}
}

// TFIMWorkload returns a Trotterized transverse-field Ising evolution
// benchmark (tfim_<sites>_t<t>_s<steps>).
func TFIMWorkload(sites int, t float64, steps int) Workload {
	m := hamiltonian.TFIM{Sites: sites, J: 1, H: 0.9}
	c, err := m.TrotterCircuit(t, steps)
	if err != nil {
		panic(err) // static parameters; misuse is a programming error
	}
	return circuitWorkload(c)
}

// arm is one configuration an experiment measures every workload
// under; label names it in the tables.
type arm struct {
	label string
	opt   core.Options
}

// errOut receives the cause of every cell marked "error".
var errOut io.Writer = os.Stderr

// timeCell is Time for workload w under arm a. A failed cell keeps only
// its mark in the tables, so the cause of an "error" cell is printed to
// errOut, named by workload and arm.
func timeCell(w Workload, a arm, cfg Config) Measurement {
	m := Time(w, a.opt, cfg)
	if m.Mark() == "error" {
		fmt.Fprintf(errOut, "bench: %s/%s: %v\n", w.Name, a.label, m.Err)
	}
	return m
}

// measureGrid times every workload under every arm — one cell each,
// through runCells — and returns the cells as ms[workload][arm].
func measureGrid(cfg Config, ws []Workload, arms []arm) ([][]Measurement, error) {
	flat, err := runCells(cfg, len(ws)*len(arms), func(i int, cfg Config) Measurement {
		return timeCell(ws[i/len(arms)], arms[i%len(arms)], cfg)
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]Measurement, len(ws))
	for wi := range grid {
		grid[wi] = flat[wi*len(arms) : (wi+1)*len(arms)]
	}
	return grid, nil
}

// runCells executes n independent cell measurements: in index order
// when cfg.Parallel <= 1, otherwise through a bounded worker pool
// (internal/batch). Results always come back in cell order, so the
// rendered tables and CSV are identical either way — marks and node
// counts exactly, timings modulo machine load. cfg.MaxNodes stays a
// per-run budget (each cell simulates on its own fresh engine), so
// oom marks do not depend on the worker count. Shared sinks are
// serialised for the parallel path; the shared metrics registry is
// already safe for concurrent runs.
func runCells(cfg Config, n int, measure func(i int, cfg Config) Measurement) ([]Measurement, error) {
	if cfg.Parallel <= 1 {
		out := make([]Measurement, n)
		for i := range out {
			out[i] = measure(i, cfg)
		}
		return out, nil
	}
	pcfg := cfg
	if cfg.Events != nil {
		pcfg.Events = obs.NewSyncSink(cfg.Events)
	}
	jobs := make([]batch.Job[Measurement], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (Measurement, error) {
			return measure(i, pcfg), nil
		}
	}
	pres, err := batch.Run(context.Background(), jobs,
		batch.Options{Workers: cfg.Parallel, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, n)
	for i, pr := range pres {
		// Cells report failures through Measurement marks; pool-level
		// errors only arise from panics the measurement did not absorb.
		if pr.Err != nil {
			fmt.Fprintf(errOut, "bench: cell %d: %v\n", i, pr.Err)
			out[i] = Measurement{Err: pr.Err}
			continue
		}
		out[i] = pr.Value
	}
	return out, nil
}
