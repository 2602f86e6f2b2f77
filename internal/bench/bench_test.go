package bench

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grover"
)

// tinyWorkloads keeps experiment tests fast.
func tinyWorkloads() []Workload {
	return []Workload{
		GroverWorkload(6),
		SupremacyWorkload(2, 3, 8, 3),
	}
}

func TestWorkloadNames(t *testing.T) {
	if GroverWorkload(12).Name != "grover_12" {
		t.Error("grover workload name")
	}
	if ShorWorkload(15, 7).Name != "shor_15_7" {
		t.Error("shor workload name")
	}
	if SupremacyWorkload(4, 4, 12, 7).Name != "supremacy_12_16" {
		t.Error("supremacy workload name")
	}
}

func TestTimeMeasures(t *testing.T) {
	cfg := Config{Reps: 2, Budget: time.Minute}
	m := Time(GroverWorkload(6), core.Options{Strategy: core.Sequential{}}, cfg)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if m.TimedOut || m.Seconds <= 0 {
		t.Fatalf("measurement %+v", m)
	}
}

func TestTimeTimesOut(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Nanosecond}
	m := Time(GroverWorkload(10), core.Options{Strategy: core.Sequential{}}, cfg)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if !m.TimedOut {
		t.Fatal("expected timeout")
	}
}

func TestTimePropagatesErrors(t *testing.T) {
	w := Workload{Name: "boom", Run: func(core.Options) error { return errors.New("boom") }}
	m := Time(w, core.Options{}, Config{Reps: 1})
	if m.Err == nil {
		t.Fatal("expected error")
	}
}

// column returns the index of the named column, failing the test when
// the table has none.
func column(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("table %q has no column %q", tb.Title, name)
	return -1
}

// testSpec is a small k-operations sweep over the given parameters.
func testSpec(title string, params ...int) sweepSpec {
	return sweepSpec{title, "k", params, func(p int) core.Strategy { return core.KOperations{K: p} }}
}

func TestSweepShape(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	tables, err := sweep(cfg, testSpec("test sweep", 1, 2, 4), tinyWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	sp := tables[0]
	// param column + one column per workload + average; baseline row +
	// one row per parameter.
	if len(sp.Columns) != 4 || len(sp.Rows) != 4 {
		t.Fatalf("shape %d columns x %d rows", len(sp.Columns), len(sp.Rows))
	}
	for _, row := range sp.Rows[1:] {
		for _, c := range row[1:] {
			if c.Mark != "" || c.Unit != Ratio || math.IsNaN(c.V) || c.V <= 0 {
				t.Fatalf("invalid speed-up cell %+v", c)
			}
		}
	}
	// k=1 is the sequential scheme re-run: speed-up should be near 1.
	if avg := sp.Rows[1][3].V; avg < 0.2 || avg > 5 {
		t.Fatalf("k=1 average speed-up %v wildly off 1.0", avg)
	}
	out := sp.Text()
	for _, want := range []string{"test sweep", "grover_6", "average", "1.0x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	tables, err := Fig5(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig. 5 returned %d tables, want sampled trace, work and full trace", len(tables))
	}
	sampled, work, trace := tables[0], tables[1], tables[2]
	rows := map[string]int{}
	for _, r := range trace.Rows {
		rows[r[0].Mark]++
	}
	if rows["sequential"] == 0 || rows["combined"] == 0 {
		t.Fatalf("empty traces: %v", rows)
	}
	if rows["combined"] >= rows["sequential"] {
		t.Fatalf("combining should reduce the number of applications: %d vs %d",
			rows["combined"], rows["sequential"])
	}
	if len(work.Rows) != 2 {
		t.Fatalf("work table has %d rows, want sequential and combined", len(work.Rows))
	}
	for _, r := range work.Rows {
		if r[1].V == 0 {
			t.Fatalf("missing work counters: %s has 0 recursions", r[0].Mark)
		}
		if math.IsNaN(r[2].V) || math.IsInf(r[2].V, 0) || r[2].V <= 0 {
			t.Fatalf("%s work ratio %v", r[0].Mark, r[2].V)
		}
	}
	out := sampled.Text() + work.Text()
	for _, want := range []string{"state nodes", "recursions", "less_work"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered Fig.5 missing %q:\n%s", want, out)
		}
	}
	if sampled.CSV() != "" || work.CSV() != "" || trace.Text() != "" {
		t.Fatal("Fig. 5 prints the sampled trace and the work totals and writes the full trace")
	}
}

// paperRow builds one Table I/II measurement row: t_sota, the general
// strategies (in generalStrategies order) and any extra cells.
func paperRow(sota Measurement, general []Measurement, extra ...Measurement) []Measurement {
	return append(append([]Measurement{sota}, general...), extra...)
}

func TestRenderTable1(t *testing.T) {
	arms := paperArms(arm{label: "DD-repeating"})
	row := paperRow(Measurement{Seconds: 1.5},
		[]Measurement{{Seconds: 0.9}, {Seconds: 0.5}, {Seconds: 0.7}, {TimedOut: true, Seconds: 0.1}, {Seconds: 0.6}},
		Measurement{Seconds: 0.25})
	out := table1([]Workload{{Name: "grover_14"}}, arms, [][]Measurement{row}).Text()
	for _, want := range []string{"grover_14", "1.50", "0.500", "0.250", "k-operations(k=8)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// allTimedOut is a general-strategy column in which every run hit the
// budget.
func allTimedOut(budget float64) []Measurement {
	ms := make([]Measurement, len(generalStrategies()))
	for i := range ms {
		ms[i] = Measurement{TimedOut: true, Seconds: budget}
	}
	return ms
}

func TestRenderTable2Timeouts(t *testing.T) {
	row := paperRow(Measurement{TimedOut: true, Seconds: 30}, allTimedOut(30))
	out := table2([]ShorInstance{{1007, 602}}, paperArms(), [][]Measurement{row}, []float64{0.02}, 30).Text()
	if !strings.Contains(out, ">30.00") {
		t.Fatalf("timeout rows not marked:\n%s", out)
	}
	if !strings.Contains(out, "0.02") {
		t.Fatalf("construct time missing:\n%s", out)
	}
}

func TestTable2InstancesValid(t *testing.T) {
	for _, inst := range Table2Instances(true) {
		if inst.N%2 == 0 {
			t.Errorf("instance N=%d is even", inst.N)
		}
		if gcd(inst.A, inst.N) != 1 {
			t.Errorf("instance a=%d not coprime to N=%d", inst.A, inst.N)
		}
		// Must be composite (otherwise there is nothing to factor).
		prime := true
		for d := uint64(2); d*d <= inst.N; d++ {
			if inst.N%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			t.Errorf("instance N=%d is prime", inst.N)
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestFigWorkloadsCoverAllFamilies(t *testing.T) {
	for _, full := range []bool{false, true} {
		families := map[string]bool{}
		for _, w := range FigWorkloads(full) {
			switch {
			case strings.HasPrefix(w.Name, "grover"):
				families["grover"] = true
			case strings.HasPrefix(w.Name, "shor"):
				families["shor"] = true
			case strings.HasPrefix(w.Name, "supremacy"):
				families["supremacy"] = true
			}
		}
		if len(families) != 3 {
			t.Fatalf("full=%v: families %v", full, families)
		}
	}
}

func TestGroverWorkloadMatchesGenerator(t *testing.T) {
	// The workload must actually be a Grover circuit of the stated size.
	w := GroverWorkload(8)
	res := make(chan error, 1)
	res <- w.Run(core.Options{Strategy: core.Sequential{}})
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	_ = grover.Iterations(8)
}

func TestAdaptiveSweepSmall(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	spec := sweepSpec{"adaptive", "r", []int{50, 100},
		func(p int) core.Strategy { return core.Adaptive{Ratio: float64(p) / 100} }}
	tables, err := sweep(cfg, spec, tinyWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows[1:] {
		for _, c := range row[1:] {
			if c.Mark != "" || c.V <= 0 || math.IsNaN(c.V) {
				t.Fatalf("invalid speed-up %+v", c)
			}
		}
	}
}

func TestTable1SmallInstance(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	tables, err := Table1(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 1 || tb.Rows[0][0].Mark != "grover_8" {
		t.Fatalf("rows %+v", tb.Rows)
	}
	r := tb.Rows[0]
	for _, name := range []string{"t_sota", "t_general", "t_dd_repeating"} {
		if c := r[column(t, tb, name)]; c.Mark != "" || c.V <= 0 {
			t.Fatalf("%s: non-positive timing %+v", name, c)
		}
	}
	if r[column(t, tb, "best_general")].Mark == "" {
		t.Fatal("best general strategy not recorded")
	}
	// No relative-speed assertion here: grover_8 runs in milliseconds
	// and scheduler jitter dominates; the speed claims are validated on
	// the real instance sizes by cmd/ddbench (see EXPERIMENTS.md).
}

func TestTable2SmallInstance(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	tables, err := Table2(cfg, ShorInstance{N: 15, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 1 {
		t.Fatalf("rows %+v", tb.Rows)
	}
	r := tb.Rows[0]
	if r[column(t, tb, "qubits_gate")].V != 11 || r[column(t, tb, "qubits_construct")].V != 5 {
		t.Fatalf("qubit columns wrong: %+v", r)
	}
	sota, general := r[column(t, tb, "t_sota")], r[column(t, tb, "t_general")]
	if sota.Mark != "" || sota.Unit != Seconds || general.Mark != "" || general.Unit != Seconds {
		t.Fatalf("unexpected timeout: %+v", r)
	}
	if c := r[column(t, tb, "t_dd_construct")].V; c <= 0 || c > sota.V {
		t.Fatalf("DD-construct should beat the gate level: %+v", r)
	}
}

func TestSweepCSV(t *testing.T) {
	ratio := func(v float64) Cell { return Cell{V: v, Unit: Ratio} }
	tb := &Table{
		Columns: cols(Both, "k", "grover_6", "shor,weird", "average"),
		Rows: [][]Cell{
			{label("baseline_seconds"), {V: 0.5, Unit: Seconds}, {V: 1.25, Unit: Seconds}, label("")},
			{label("2"), ratio(1.5), ratio(0.9), ratio(1.2)},
			{label("4"), ratio(math.NaN()), ratio(2), ratio(2)},
		},
	}
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines %d:\n%s", len(lines), csv)
	}
	if lines[0] != `k,grover_6,"shor,weird",average` {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "baseline_seconds,0.5,1.25," {
		t.Fatalf("baseline row %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "2,1.5,0.9,") {
		t.Fatalf("row %q", lines[2])
	}
	// A cell without a value is empty.
	if lines[3] != "4,,2,2" {
		t.Fatalf("timeout row %q", lines[3])
	}
}

func TestTableCSVs(t *testing.T) {
	row := paperRow(Measurement{Seconds: 1},
		[]Measurement{{Seconds: 0.5}, {Seconds: 0.7}, {Seconds: 0.8}, {Seconds: 0.9}, {Seconds: 0.6}},
		Measurement{Seconds: 0.1})
	t1 := table1([]Workload{{Name: "grover_12"}}, paperArms(arm{label: "DD-repeating"}), [][]Measurement{row}).CSV()
	if !strings.HasPrefix(t1, "benchmark,t_sota,t_general,t_dd_repeating,best_general\n") ||
		!strings.Contains(t1, "grover_12,1,0.5,0.1,k-operations(k=4)") {
		t.Fatalf("table1 csv:\n%s", t1)
	}
	row = paperRow(Measurement{TimedOut: true, Seconds: 90}, allTimedOut(90))
	t2 := table2([]ShorInstance{{1007, 602}}, paperArms(), [][]Measurement{row}, []float64{0.2}, 90).CSV()
	if !strings.HasPrefix(t2, "benchmark,qubits_gate,t_sota,t_general,t_dd_construct,qubits_construct,best_general\n") ||
		!strings.Contains(t2, "shor_1007_602,23,>90,>90,0.2,11,") {
		t.Fatalf("table2 csv:\n%s", t2)
	}
}

func TestTraceCSV(t *testing.T) {
	csv := traceTable(
		[]core.TracePoint{{GateIndex: 1, OpSize: 2, StateSize: 3, Combined: 1}},
		[]core.TracePoint{{GateIndex: 4, OpSize: 5, StateSize: 6, Combined: 4}},
	).CSV()
	if !strings.HasPrefix(csv, "scheme,gate_index,op_nodes,state_nodes,combined\n") ||
		!strings.Contains(csv, "sequential,1,2,3,1") || !strings.Contains(csv, "combined,4,5,6,4") {
		t.Fatalf("trace csv:\n%s", csv)
	}
}

// TestTimeReportsOOM checks the node-budget mapping: a run exceeding
// cfg.MaxNodes is marked "oom", not propagated as a fatal error.
func TestTimeReportsOOM(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute, MaxNodes: 5}
	m := Time(GroverWorkload(10), core.Options{Strategy: core.Sequential{}}, cfg)
	if !m.OOM || m.Mark() != "oom" {
		t.Fatalf("measurement %+v, want oom", m)
	}
	if !errors.Is(m.Err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", m.Err)
	}
}

// TestSweepResilient checks that one blown workload cannot kill a
// sweep: its cells carry marks while the healthy workload still
// produces speed-ups, the rendered/CSV outputs surface the marks, and
// each error cell's cause is reported with its workload and arm.
func TestSweepResilient(t *testing.T) {
	var causes strings.Builder
	errOut = &causes
	t.Cleanup(func() { errOut = os.Stderr })
	boom := Workload{Name: "boom", Run: func(core.Options) error { return errors.New("kaput") }}
	ws := []Workload{GroverWorkload(6), boom}
	cfg := Config{Reps: 1, Budget: time.Minute}
	tables, err := sweep(cfg, testSpec("resilient sweep", 2, 4), ws)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := causes.String(), "bench: boom/baseline: kaput\nbench: boom/2: kaput\nbench: boom/4: kaput\n"; got != want {
		t.Fatalf("error causes reported as %q, want %q", got, want)
	}
	sp := tables[0]
	for _, row := range sp.Rows[1:] {
		if c := row[1]; c.Mark != "" || math.IsNaN(c.V) || c.V <= 0 {
			t.Fatalf("healthy workload got invalid speed-up %+v", c)
		}
	}
	for _, row := range sp.Rows {
		if row[2].Mark != "error" {
			t.Fatalf("blown cell %q carries mark %q, want error", row[0].Mark, row[2].Mark)
		}
	}
	if out := sp.Text(); !strings.Contains(out, "error") {
		t.Fatalf("render hides the marks:\n%s", out)
	}
	if csv := sp.CSV(); !strings.Contains(csv, "error") {
		t.Fatalf("CSV hides the marks:\n%s", csv)
	}
}

// TestTable1Resilient checks that an OOM-marked column is reported
// instead of failing the table.
func TestTable1Resilient(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute, MaxNodes: 5}
	tables, err := Table1(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, name := range []string{"t_sota", "t_general", "t_dd_repeating"} {
		if m := tb.Rows[0][column(t, tb, name)].Mark; m != "oom" {
			t.Fatalf("%s mark %q, want oom under a 5-node budget", name, m)
		}
	}
	for _, out := range []string{tb.Text(), tb.CSV()} {
		if !strings.Contains(out, "oom") {
			t.Fatalf("output hides the oom marks:\n%s", out)
		}
	}
}

// TestTimeClassifiesRunErrorKinds pins the Mark plumbing for
// batch-executed cells: the typed *core.RunError — however a workload
// wraps it — must populate the timeout/oom/canceled marks.
func TestTimeClassifiesRunErrorKinds(t *testing.T) {
	mk := func(kind core.FailureKind, sentinel error) Workload {
		return Workload{Name: "synthetic", Run: func(core.Options) error {
			return fmt.Errorf("wrapped: %w", &core.RunError{Kind: kind, Err: sentinel})
		}}
	}
	m := Time(mk(core.FailureDeadline, core.ErrDeadlineExceeded), core.Options{}, Config{Reps: 1, Budget: time.Minute})
	if !m.TimedOut || m.Mark() != "timeout" {
		t.Fatalf("deadline kind: %+v mark %q", m, m.Mark())
	}
	if m.Seconds != 60 {
		t.Fatalf("timeout cell must report the budget, got %v", m.Seconds)
	}
	m = Time(mk(core.FailureBudget, core.ErrBudgetExceeded), core.Options{}, Config{Reps: 1, MaxNodes: 10})
	if !m.OOM || m.Mark() != "oom" {
		t.Fatalf("budget kind: %+v mark %q", m, m.Mark())
	}
	m = Time(mk(core.FailureCanceled, core.ErrCanceled), core.Options{}, Config{Reps: 1})
	if !m.Canceled || m.Mark() != "canceled" {
		t.Fatalf("canceled kind: %+v mark %q", m, m.Mark())
	}
	m = Time(mk(core.FailurePanic, errors.New("kaboom")), core.Options{}, Config{Reps: 1})
	if m.Mark() != "error" {
		t.Fatalf("panic kind: %+v mark %q", m, m.Mark())
	}
}

// TestTimeRepsKeepMatchingCell: with several reps the reported Cell
// must belong to the reported timing, not to whichever rep ran last.
func TestTimeRepsKeepMatchingCell(t *testing.T) {
	m := Time(GroverWorkload(6), core.Options{Strategy: core.Sequential{}}, Config{Reps: 3, Budget: time.Minute})
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if !m.Cell.Valid {
		t.Fatal("no cell captured")
	}
	// The engine work of grover_6 under a fixed strategy is
	// deterministic, so any rep's counters match; the sanity check is
	// that the cell is populated and consistent with a clean run.
	if m.Cell.Abort != "" || m.Cell.MatVecMuls == 0 {
		t.Fatalf("cell %+v", m.Cell)
	}
}

// deterministicCSV blanks the wall-clock columns of a metrics table;
// every cell left must be identical between a serial and a parallel
// sweep of the same cells.
func deterministicCSV(t *testing.T, tb *Table) string {
	t.Helper()
	clock := []int{column(t, tb, "seconds"), column(t, tb, "gc_pause_seconds")}
	out := &Table{Columns: tb.Columns}
	for _, r := range tb.Rows {
		r = append([]Cell(nil), r...)
		for _, ci := range clock {
			r[ci] = label("")
		}
		out.Rows = append(out.Rows, r)
	}
	return out.CSV()
}

// TestSweepParallelMatchesSerial is the harness half of the acceptance
// criterion "ddbench -parallel 4 produces the same CSV cells as serial
// mode": marks, node counts and every other deterministic counter of
// every cell must be identical; only timings may differ.
func TestSweepParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) []*Table {
		cfg := Config{Reps: 1, Budget: time.Minute, Parallel: parallel}
		tables, err := sweep(cfg, testSpec("par sweep", 1, 2, 4), tinyWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	serial, parallel := run(1), run(4)
	s, p := deterministicCSV(t, serial[1]), deterministicCSV(t, parallel[1])
	if s != p {
		t.Fatalf("cells diverge:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	if n := strings.Count(s, "\n"); n != 1+2*4 {
		t.Fatalf("metrics table has %d lines, want header + 8 cells:\n%s", n, s)
	}
}

// sweepMarks returns the marks of a speed-up table, row by row.
func sweepMarks(tb *Table) [][]string {
	var out [][]string
	for _, r := range tb.Rows {
		var marks []string
		for _, c := range r[1 : len(r)-1] {
			marks = append(marks, c.Mark)
		}
		out = append(out, marks)
	}
	return out
}

// TestSweepParallelOOMMarksMatchSerial: cfg.MaxNodes stays a per-run
// budget in parallel mode — oom marks must not depend on the worker
// count.
func TestSweepParallelOOMMarksMatchSerial(t *testing.T) {
	run := func(parallel int) [][]string {
		cfg := Config{Reps: 1, Budget: time.Minute, MaxNodes: 40, Parallel: parallel}
		tables, err := sweep(cfg, testSpec("oom sweep", 2, 8), tinyWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		return sweepMarks(tables[0])
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("oom marks diverge:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}
