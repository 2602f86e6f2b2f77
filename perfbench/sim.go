package main

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/supremacy"
)

// fidelityTol is the largest infidelity a simulated state may show
// against its dense reference before the circuit counts as wrong.
const fidelityTol = 1e-6

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// simWorkload runs a pool of circuits one after another through
// core.RunContext, each on a fresh engine.
type simWorkload struct {
	name string
	// pool is the number of distinct circuits generated from the seed;
	// every run executes each at least once, so peak_nodes.max is a
	// function of the seed alone.
	pool int
	// generate builds circuit i of the pool and, for grover, the marked
	// element (-1 otherwise).
	generate func(rng *rand.Rand) (*circuit.Circuit, int64)
	// options returns the run options; save, when non-nil, persists a
	// checkpoint.
	options func(save func(*core.Checkpoint) error) core.Options
	// checkpoints says whether runs write periodic checkpoints.
	checkpoints bool
}

// simCase is one pool circuit as text, with its untimed dense
// reference (nil for grover, whose reference is closed-form). Circuits
// are parsed from the text right before they run, so only one is held
// in memory at a time.
type simCase struct {
	text   string
	marked int64
	ref    *dense.State
}

// parse reads the case's circuit through the circuit layer.
func (cs simCase) parse() (*circuit.Circuit, float64, error) {
	t0 := time.Now()
	c, err := circuit.ParseString(cs.text)
	return c, time.Since(t0).Seconds(), err
}

var plannerStrategy = func() core.Strategy {
	st, err := core.NewStrategy("planner", core.StrategyKnobs{})
	if err != nil {
		panic(err)
	}
	return st
}()

var supremacyWorkload = &simWorkload{
	name: "supremacy",
	pool: 24,
	generate: func(rng *rand.Rand) (*circuit.Circuit, int64) {
		return supremacy.Circuit(4, 4, 14, rng.Int63()), -1
	},
	options: func(func(*core.Checkpoint) error) core.Options {
		return core.Options{Strategy: plannerStrategy}
	},
}

var groverWorkload = &simWorkload{
	name: "grover",
	pool: 40,
	generate: func(rng *rand.Rand) (*circuit.Circuit, int64) {
		const n = 18
		marked := rng.Int63n(1 << n)
		return grover.Circuit(n, uint64(marked), 0), marked
	},
	options: func(func(*core.Checkpoint) error) core.Options {
		return core.Options{Strategy: core.MaxSize{SMax: 128}}
	},
}

// governedSoftBudget is low enough that the governor's ladder acts on
// every circuit and high enough that no run parks.
const governedSoftBudget = 1000

var governedWorkload = &simWorkload{
	name: "governed",
	pool: 16,
	generate: func(rng *rand.Rand) (*circuit.Circuit, int64) {
		return supremacy.Circuit(4, 4, 12, rng.Int63()), -1
	},
	options: func(save func(*core.Checkpoint) error) core.Options {
		return core.Options{
			Strategy:        core.Sequential{},
			Reorder:         "sifting",
			SoftBudget:      governedSoftBudget,
			Degrade:         "ladder",
			VerifyEvery:     16,
			CheckpointEvery: 16,
			OnCheckpoint:    save,
		}
	},
	checkpoints: true,
}

// prepare generates the pool from the seed and computes the dense
// references (the benchmark's oracle, not part of set-up time).
// Grover's closed-form reference is built when checked instead, which
// keeps 4 MiB per pool circuit out of the process's resident set.
func (w *simWorkload) prepare(cfg config) []simCase {
	rng := rand.New(rand.NewSource(cfg.seed))
	var cases []simCase
	for i := 0; i < w.pool; i++ {
		gen, marked := w.generate(rng)
		cs := simCase{text: gen.String(), marked: marked}
		if marked < 0 {
			cs.ref = reference(gen, marked)
		}
		cases = append(cases, cs)
	}
	return cases
}

// setup is what the program does before the first timed circuit: parse
// a circuit and run it untimed on a fresh engine, so lazy
// initialisation is done before timing starts. The warm-up circuit is
// the same for every seed, so set-up time does not vary with the
// workload's inputs.
func (w *simWorkload) setup(cfg config) (float64, error) {
	start := time.Now()
	gen, _ := w.generate(rand.New(rand.NewSource(0)))
	c, err := circuit.ParseString(gen.String())
	if err != nil {
		return 0, fmt.Errorf("%s: parse warm-up circuit: %w", w.name, err)
	}
	res, err := core.RunContext(context.Background(), c, w.runOptions(cfg, nil))
	if err != nil {
		return 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	if res.GatesApplied != len(c.Gates) {
		return 0, fmt.Errorf("%s: warm-up applied %d of %d gates", w.name, res.GatesApplied, len(c.Gates))
	}
	return time.Since(start).Seconds(), nil
}

// reference is the dense state a circuit must produce. Grover's is
// closed-form (a dense run of grover_18 would cost minutes); the rest
// come from internal/dense.
func reference(c *circuit.Circuit, marked int64) *dense.State {
	if marked < 0 {
		return dense.Simulate(c)
	}
	n := c.NQubits
	dim := 1 << n
	theta := math.Asin(1 / math.Sqrt(float64(dim)))
	angle := float64(2*grover.Iterations(n)+1) * theta
	rest := complex(math.Cos(angle)/math.Sqrt(float64(dim-1)), 0)
	amps := make([]complex128, dim)
	for i := range amps {
		amps[i] = rest
	}
	amps[marked] = complex(math.Sin(angle), 0)
	return dense.FromVector(amps)
}

// runOptions returns the workload's options on a fresh engine; save
// (nil for the default) persists checkpoints into the run's scratch
// directory.
func (w *simWorkload) runOptions(cfg config, save func(*core.Checkpoint) error) core.Options {
	if w.checkpoints && save == nil {
		path := filepath.Join(cfg.workdir, "ckpt.bin")
		save = func(ck *core.Checkpoint) error { return core.SaveCheckpoint(path, ck) }
	}
	opt := w.options(save)
	opt.Engine = dd.New()
	return opt
}

// check compares a run of c with the case's reference.
func (w *simWorkload) check(cs simCase, c *circuit.Circuit, res *core.Result) error {
	if res.GatesApplied != len(c.Gates) {
		return fmt.Errorf("applied %d of %d gates", res.GatesApplied, len(c.Gates))
	}
	amps := dd.VectorInOrder(res.State, res.Order)
	ref := cs.ref
	if ref == nil {
		ref = reference(c, cs.marked)
	}
	if f := ref.Fidelity(dense.FromVector(amps)); f < 1-fidelityTol {
		return fmt.Errorf("fidelity %.9f against the dense reference", f)
	}
	if cs.marked >= 0 {
		n := c.NQubits
		p := cmplx.Abs(amps[cs.marked])
		p *= p
		if want := grover.SuccessProbability(n, grover.Iterations(n)); math.Abs(p-want) > fidelityTol {
			return fmt.Errorf("marked element probability %.9f, want %.9f", p, want)
		}
	}
	if w.checkpoints {
		if res.FidelityBound != 1 {
			return fmt.Errorf("fidelity bound %g, want 1", res.FidelityBound)
		}
		if err := res.Engine.Audit(); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
	}
	return nil
}

// setupMedian prepares the pool and sets up setupReps times,
// returning the median set-up time.
func (w *simWorkload) setupMedian(cfg config) ([]simCase, float64, error) {
	cases := w.prepare(cfg)
	var times []float64
	for i := 0; i < setupReps; i++ {
		t, err := w.setup(cfg)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t)
	}
	return cases, median(times), nil
}

// circuitRun is one timed core.RunContext call.
type circuitRun struct {
	c         *circuit.Circuit
	parseS    float64
	wall, cpu float64
	rssMiB    float64 // peak RSS during the call; 0 if it cannot be reset
	peakNodes int
	err       error
}

// runOne parses a pool circuit, runs it on a fresh engine, timing the
// core.RunContext call, and checks the result.
func (w *simWorkload) runOne(cfg config, cs simCase) circuitRun {
	c, parseS, err := cs.parse()
	if err != nil {
		return circuitRun{err: err}
	}
	opt := w.runOptions(cfg, nil)
	// Collect the previous circuit's engine and return its memory to
	// the OS now, outside the timed call, so each circuit starts from
	// the same heap and its peak RSS is its own.
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	c0 := cpuTime()
	t0 := time.Now()
	res, err := core.RunContext(context.Background(), c, opt)
	r := circuitRun{c: c, parseS: parseS, wall: time.Since(t0).Seconds(), cpu: (cpuTime() - c0).Seconds()}
	if rssErr == nil {
		r.rssMiB = peakRSSMiB()
	}
	if err == nil {
		err = w.check(cs, c, res)
	}
	r.err = err
	if res != nil {
		r.peakNodes = res.Stats.PeakVNodes + res.Stats.PeakMNodes
	}
	return r
}

// run is the untraced end-to-end run: set-up, then circuits round-robin
// over the pool until the time is up and every pool circuit has run.
func (w *simWorkload) run(cfg config) (*outcome, error) {
	cases, setupS, err := w.setupMedian(cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var walls, cpus, rss []float64
	peak, qubits := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < len(cases) || time.Now().Before(deadline); i++ {
		r := w.runOne(cfg, cases[i%len(cases)])
		out.attempted++
		if r.err != nil {
			out.failed++
			out.note("circuit %d: %v", i%len(cases), r.err)
			continue
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		rss = append(rss, r.rssMiB)
		peak = max(peak, r.peakNodes)
		qubits = r.c.NQubits
	}
	out.set("setup_s", "s", setupS)
	out.set("latency_s.p50", "s", median(walls))
	out.set("latency_s.p75", "s", quantile(walls, 0.75))
	out.set("cpu_s_per_item", "s", mean(cpus))
	if median(rss) > 0 {
		out.set("peak_rss_mib", "MiB", median(rss))
	} else {
		out.set("peak_rss_mib", "MiB", peakRSSMiB())
		out.note("peak_rss_mib is the process's lifetime peak: /proc/self/clear_refs is unavailable")
	}
	out.set("peak_nodes.max", "nodes", float64(peak))
	out.note("%s: run_s.p90 %.4g s (p90 rests on %d samples beyond it; the bounded metric is p75)",
		w.name, quantile(walls, 0.9), len(walls)-int(math.Ceil(0.9*float64(len(walls)))))
	out.note("%s: %d circuits (%d distinct) of %d qubits; latency_s is run_s, the wall time of one core.RunContext call; cpu_s_per_item is cpu_s_per_circuit; peak_rss_mib is the median over circuits of the peak RSS during one circuit",
		w.name, len(walls), len(cases), qubits)
	return out, nil
}
