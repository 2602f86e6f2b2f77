package bench

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// newSeededRand returns the deterministic randomness source used for
// measurement outcomes in benchmark runs.
func newSeededRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// --- Fig. 8 / Fig. 9: parameter sweeps ---------------------------------

// sweepSpec is one speed-up sweep: a strategy family over a parameter,
// every cell's speed-up taken over the workload's sequential baseline.
type sweepSpec struct {
	title, param string
	params       []int
	strategy     func(int) core.Strategy
}

// Fig8Params are the k values swept for strategy k-operations.
var Fig8Params = []int{2, 4, 8, 16, 32, 64, 128}

// Fig9Params are the s_max values swept for strategy max-size.
var Fig9Params = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// AdaptiveParams are the ratio values (×100, to keep the integer sweep
// machinery) swept for the adaptive-strategy ablation: 0.1 … 8.
var AdaptiveParams = []int{10, 25, 50, 100, 200, 400, 800}

var (
	fig8Spec = sweepSpec{"Fig. 8: speed-up of strategy k-operations vs. sequential", "k",
		Fig8Params, func(p int) core.Strategy { return core.KOperations{K: p} }}
	fig9Spec = sweepSpec{"Fig. 9: speed-up of strategy max-size vs. sequential", "s_max",
		Fig9Params, func(p int) core.Strategy { return core.MaxSize{SMax: p} }}
	adaptiveSpec = sweepSpec{"Adaptive-strategy sweep: speed-up vs. op/state size ratio (×100)", "ratio×100",
		AdaptiveParams, func(p int) core.Strategy { return core.Adaptive{Ratio: float64(p) / 100} }}
)

// Fig8 reproduces the k-operations sweep.
func Fig8(cfg Config) ([]*Table, error) { return sweep(cfg, fig8Spec, FigWorkloads(cfg.Full)) }

// Fig9 reproduces the max-size sweep.
func Fig9(cfg Config) ([]*Table, error) { return sweep(cfg, fig9Spec, FigWorkloads(cfg.Full)) }

// AdaptiveSweep runs the fig-8/9-style sweep for the adaptive strategy
// (an extension beyond the paper; see DESIGN.md ablations).
func AdaptiveSweep(cfg Config) ([]*Table, error) {
	return sweep(cfg, adaptiveSpec, FigWorkloads(cfg.Full))
}

// sweep measures every workload's sequential baseline and every swept
// configuration, and reports the speed-up table (with the geometric-mean
// average line the paper plots) and the per-cell telemetry table.
func sweep(cfg Config, s sweepSpec, ws []Workload) ([]*Table, error) {
	arms := []arm{{"baseline", core.Options{Strategy: core.Sequential{}}}}
	for _, p := range s.params {
		arms = append(arms, arm{strconv.Itoa(p), core.Options{Strategy: s.strategy(p)}})
	}
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	return []*Table{speedupTable(s, ws, arms, ms), metricsTable(ws, arms, ms)}, nil
}

// speedupTable lays the sweep out as the paper's figure: one row per
// parameter, one column per workload, a cell's speed-up being
// t_sequential / t_strategy. A failed cell shows its mark; a clean cell
// over a failed baseline has no speed-up.
func speedupTable(s sweepSpec, ws []Workload, arms []arm, ms [][]Measurement) *Table {
	t := &Table{
		Title:   s.title + "\n(speed-up = t_sequential / t_strategy; the baseline_seconds row holds t_sequential)",
		Columns: cols(Both, s.param),
	}
	base := []Cell{label("baseline_seconds")}
	for wi, w := range ws {
		t.Columns = append(t.Columns, Column{Name: w.Name})
		base = append(base, secs(ms[wi][0]))
	}
	t.Columns = append(t.Columns, Column{Name: "average"})
	t.Rows = append(t.Rows, append(base, label("")))
	avgs := make([]float64, len(s.params))
	for pi := range s.params {
		row := []Cell{label(arms[1+pi].label)}
		prod, n := 1.0, 0
		for wi := range ws {
			b, m := ms[wi][0], ms[wi][1+pi]
			v := math.NaN()
			if b.Mark() == "" && m.Mark() == "" {
				v = b.Seconds / m.Seconds
				prod *= v
				n++
			}
			row = append(row, measured(m, v, Ratio))
		}
		avgs[pi] = math.NaN()
		if n > 0 {
			avgs[pi] = math.Pow(prod, 1/float64(n))
		}
		t.Rows = append(t.Rows, append(row, Cell{V: avgs[pi], Unit: Ratio}))
	}
	t.Footer = averageChart(s, avgs)
	return t
}

// averageChart draws the average speed-up per parameter as a bar
// chart, the textual analogue of the paper's figure.
func averageChart(s sweepSpec, avgs []float64) string {
	var sb strings.Builder
	maxAvg := 1.0
	for _, v := range avgs {
		if !math.IsNaN(v) && v > maxAvg {
			maxAvg = v
		}
	}
	const width = 48
	fmt.Fprintf(&sb, "average speed-up over %s (| marks 1.0x):\n", s.param)
	onePos := int(float64(width) / maxAvg)
	for pi, p := range s.params {
		v := avgs[pi]
		if math.IsNaN(v) {
			fmt.Fprintf(&sb, "%8d  (no clean cell)\n", p)
			continue
		}
		bars := int(v / maxAvg * float64(width))
		line := make([]byte, width+1)
		for i := range line {
			switch {
			case i < bars:
				line[i] = '#'
			case i == onePos:
				line[i] = '|'
			default:
				line[i] = ' '
			}
		}
		fmt.Fprintf(&sb, "%8d  %s %.2fx\n", p, string(line), v)
	}
	return sb.String()
}

// --- Tables I and II ----------------------------------------------------

// generalStrategies is the small sweep from which t_general picks its
// best result (the paper reports the best k/s_max choice).
func generalStrategies() []core.Strategy {
	return []core.Strategy{
		core.KOperations{K: 4},
		core.KOperations{K: 8},
		core.KOperations{K: 16},
		core.MaxSize{SMax: 64},
		core.MaxSize{SMax: 256},
	}
}

// paperArms are the columns of both tables: t_sota (sequential), the
// general strategies, and whatever the table adds.
func paperArms(extra ...arm) []arm {
	arms := []arm{{"sequential", core.Options{Strategy: core.Sequential{}}}}
	for _, st := range generalStrategies() {
		arms = append(arms, arm{st.Name(), core.Options{Strategy: st}})
	}
	return append(arms, extra...)
}

// bestGeneral picks t_general from the general-strategy cells: the
// fastest clean run and its strategy name. When none finished it
// returns the last failed run, whose mark the cell then shows.
func bestGeneral(arms []arm, ms []Measurement) (Measurement, string) {
	best, name := ms[len(ms)-1], ""
	for i, m := range ms {
		if m.Mark() == "" && (name == "" || m.Seconds < best.Seconds) {
			best, name = m, arms[i].label
		}
	}
	return best, name
}

// Table1Sizes returns the grover sizes benchmarked (paper: 23–29
// qubits; scaled here per DESIGN.md).
func Table1Sizes(full bool) []int {
	if full {
		return []int{14, 16, 18, 20}
	}
	return []int{12, 14, 16, 18}
}

// Table1 reproduces Table I: t_sota, t_general and t_DD-repeating for
// the grover benchmarks. Custom sizes override the defaults (used by
// tests and ad-hoc sweeps).
func Table1(cfg Config, sizes ...int) ([]*Table, error) {
	if len(sizes) == 0 {
		sizes = Table1Sizes(cfg.Full)
	}
	ws := make([]Workload, len(sizes))
	for i, n := range sizes {
		ws[i] = GroverWorkload(n)
	}
	arms := paperArms(arm{"DD-repeating", core.Options{Strategy: core.Sequential{}, UseBlocks: true}})
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	return []*Table{table1(ws, arms, ms)}, nil
}

func table1(ws []Workload, arms []arm, ms [][]Measurement) *Table {
	t := &Table{
		Title:   "Table I: results for grover benchmarks (strategy DD-repeating)\nall times in seconds",
		Columns: cols(Both, "benchmark", "t_sota", "t_general", "t_dd_repeating", "best_general"),
	}
	last := len(arms) - 1
	for wi, w := range ws {
		g, name := bestGeneral(arms[1:last], ms[wi][1:last])
		t.Rows = append(t.Rows, []Cell{label(w.Name), secs(ms[wi][0]), secs(g), secs(ms[wi][last]), label(name)})
	}
	return t
}

// ShorInstance is one (N, a) order-finding instance.
type ShorInstance struct {
	N, A uint64
}

// Table2Instances returns the shor instances. The quick set completes
// within the budget on all three columns; the full set adds the paper's
// own large moduli, for which the gate-level columns time out exactly
// as in the paper while DD-construct stays in the sub-second range.
func Table2Instances(full bool) []ShorInstance {
	quick := []ShorInstance{{15, 7}, {21, 2}, {33, 5}, {35, 6}, {55, 6}}
	if !full {
		return quick
	}
	return append(quick,
		ShorInstance{1007, 602},  // paper instance shor_1007_602_23
		ShorInstance{1851, 17},   // paper instance shor_1851_17_25
		ShorInstance{2561, 2409}, // paper instance shor_2561_2409_27
	)
}

// Table2 reproduces Table II: t_sota, t_general and t_DD-construct.
// Custom instances override the defaults. DD-construct builds its
// oracle outside the gate-level simulator, so its column is timed
// directly rather than through Time.
func Table2(cfg Config, instances ...ShorInstance) ([]*Table, error) {
	if len(instances) == 0 {
		instances = Table2Instances(cfg.Full)
	}
	ws := make([]Workload, len(instances))
	for i, inst := range instances {
		ws[i] = ShorWorkload(inst.N, inst.A)
	}
	arms := paperArms()
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	construct := make([]float64, len(instances))
	for i, inst := range instances {
		start := time.Now()
		if _, err := shor.SimulateDDConstruct(inst.N, inst.A, newSeededRand()); err != nil {
			return nil, err
		}
		construct[i] = time.Since(start).Seconds()
	}
	return []*Table{table2(instances, arms, ms, construct, cfg.Budget.Seconds())}, nil
}

func table2(instances []ShorInstance, arms []arm, ms [][]Measurement, construct []float64, budget float64) *Table {
	t := &Table{
		Title: "Table II: results for shor benchmarks (strategy DD-construct)\n" +
			"all times in seconds; gate-level columns use the Beauregard 2n+3-qubit circuit,\n" +
			"DD-construct builds the oracle directly on n+1 qubits",
		Columns: cols(Both, "benchmark", "qubits_gate", "t_sota", "t_general", "t_dd_construct", "qubits_construct", "best_general"),
	}
	// A gate-level column that timed out reports the budget as a lower
	// bound, the paper's ">7200.00".
	paper := func(m Measurement) Cell {
		if m.TimedOut {
			return Cell{V: budget, Unit: AtLeast}
		}
		return secs(m)
	}
	for i, inst := range instances {
		n := bits.Len64(inst.N)
		g, name := bestGeneral(arms[1:], ms[i][1:])
		t.Rows = append(t.Rows, []Cell{
			label(ShorWorkload(inst.N, inst.A).Name), count(2*n + 3), paper(ms[i][0]), paper(g),
			{V: construct[i], Unit: Seconds}, count(n + 1), label(name),
		})
	}
	return t
}

// --- Fig. 5 / Example 3: DD size traces ----------------------------------

// Fig5 contrasts the DD sizes processed when following Eq. 1 (pure
// matrix-vector) against combining operations first (Eq. 2 locally), on
// a supremacy slice — the quantitative version of the paper's Fig. 5
// illustration. The traced runs use no budget, so they run outside Time.
func Fig5(Config) ([]*Table, error) {
	c := supremacy.Circuit(4, 4, 14, 7)
	seq, err := core.Run(c, core.Options{Strategy: core.Sequential{}, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	comb, err := core.Run(c, core.Options{Strategy: core.KOperations{K: 4}, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	sampled := &Table{
		Title: fmt.Sprintf("Fig. 5 / Example 3: op and state nodes along Eq. 1 vs. combining operations (%s)\n"+
			"sequential (Eq. 1): one matrix-vector multiplication per gate;\n"+
			"combined (k-operations, k=4): gates multiplied together first", c.Name),
		Columns: cols(TextOnly, "scheme", "gate_index", "op_nodes", "state_nodes"),
	}
	for _, tr := range []scheme{{"sequential", seq.Trace}, {"combined", comb.Trace}} {
		for _, tp := range sampleTrace(tr.points, 20) {
			sampled.Rows = append(sampled.Rows, []Cell{label(tr.name), count(tp.GateIndex), count(tp.OpSize), count(tp.StateSize)})
		}
	}
	// Work: the sequential run's recursions over each run's — how many
	// times less work the scheme did than Eq. 1.
	seqRec := seq.Stats.MulRecursions + seq.Stats.AddRecursions
	combRec := comb.Stats.MulRecursions + comb.Stats.AddRecursions
	work := &Table{
		Title:   "total multiplication/addition recursions (work metric):",
		Columns: cols(TextOnly, "scheme", "recursions", "less_work"),
		Rows: [][]Cell{
			{label("sequential"), count(seqRec), {V: 1, Unit: Ratio}},
			{label("combined"), count(combRec), {V: float64(seqRec) / float64(combRec), Unit: Ratio}},
		},
	}
	return []*Table{sampled, work, traceTable(seq.Trace, comb.Trace)}, nil
}

// scheme is one traced run of Fig. 5.
type scheme struct {
	name   string
	points []core.TracePoint
}

// traceTable is the full Fig. 5 trace (CSV only), one row per applied
// operation with its scheme.
func traceTable(seq, comb []core.TracePoint) *Table {
	t := &Table{Columns: cols(CSVOnly, "scheme", "gate_index", "op_nodes", "state_nodes", "combined")}
	for _, tr := range []scheme{{"sequential", seq}, {"combined", comb}} {
		for _, tp := range tr.points {
			t.Rows = append(t.Rows, []Cell{label(tr.name), count(tp.GateIndex), count(tp.OpSize), count(tp.StateSize), count(tp.Combined)})
		}
	}
	return t
}

// sampleTrace thins a trace to at most n evenly spaced points.
func sampleTrace(tr []core.TracePoint, n int) []core.TracePoint {
	if len(tr) <= n {
		return tr
	}
	out := make([]core.TracePoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, tr[i*len(tr)/n])
	}
	return out
}
