package bench

import (
	"testing"
	"time"
)

// markOf is the mark a table cell reports: Table II prints a timed-out
// gate-level cell as the budget lower bound instead of "timeout".
func markOf(c Cell) string {
	if c.Unit == AtLeast {
		return "timeout"
	}
	return c.Mark
}

// TestExperimentsHonourFlags runs every experiment measured through Time
// on small instances under a tiny node budget and under a tiny time
// budget: every measured cell must carry the mark Time gives it — oom
// (fallback off) or timeout — instead of a value.
func TestExperimentsHonourFlags(t *testing.T) {
	ws := []Workload{GroverWorkload(6)}
	sweepOf := func(s sweepSpec) func(Config) ([]*Table, error) {
		return func(cfg Config) ([]*Table, error) { return sweep(cfg, s, ws) }
	}
	grid := func(f func(Config, []Workload) ([]*Table, error)) func(Config) ([]*Table, error) {
		return func(cfg Config) ([]*Table, error) { return f(cfg, ws) }
	}
	sweepCols := [][]string{{"grover_6"}, {"mark"}}
	cases := []struct {
		name string
		run  func(Config) ([]*Table, error)
		// marked lists, per returned table, the columns whose every
		// cell must carry the mark.
		marked [][]string
	}{
		{"fig8", sweepOf(fig8Spec), sweepCols},
		{"fig9", sweepOf(fig9Spec), sweepCols},
		{"adaptive", sweepOf(adaptiveSpec), sweepCols},
		{"table1", func(cfg Config) ([]*Table, error) { return Table1(cfg, 6) },
			[][]string{{"t_sota", "t_general", "t_dd_repeating"}}},
		{"table2", func(cfg Config) ([]*Table, error) { return Table2(cfg, ShorInstance{15, 7}) },
			[][]string{{"t_sota", "t_general"}}},
		{"enginestats", grid(engineStats),
			[][]string{{"seconds", "add-v", "mulmv_lookups", "mul_recursions", "nodes_created", "gc_pause_seconds", "peak_nodes", "fallbacks"}}},
		{"identity", grid(identitySweep),
			[][]string{{"mark_off", "mark_on", "mul_recursions_off", "mul_recursions_on", "identity_skips", "identity_skip_levels"}}},
		{"reorder", grid(reorderSweep),
			[][]string{{"mark", "peak_nodes", "final_nodes", "swaps", "sift_passes"}}},
		{"planner", grid(plannerSweep), [][]string{{"mark"}, {"planner"}}},
	}
	flags := []struct {
		want string
		cfg  Config
	}{
		{"oom", Config{Budget: time.Minute, MaxNodes: 5}},
		{"timeout", Config{Budget: time.Nanosecond}},
	}
	for _, tc := range cases {
		for _, f := range flags {
			tables, err := tc.run(f.cfg)
			if err != nil {
				t.Fatalf("%s under %s: %v", tc.name, f.want, err)
			}
			if len(tables) != len(tc.marked) {
				t.Fatalf("%s: %d tables, want %d", tc.name, len(tables), len(tc.marked))
			}
			for ti, names := range tc.marked {
				tb := tables[ti]
				if len(tb.Rows) == 0 {
					t.Fatalf("%s under %s: table %d has no rows", tc.name, f.want, ti)
				}
				for _, name := range names {
					ci := column(t, tb, name)
					for _, r := range tb.Rows {
						if got := markOf(r[ci]); got != f.want {
							t.Fatalf("%s under %s: column %s of row %q reads %q (%v), want the mark",
								tc.name, f.want, name, r[0].Mark, got, r[ci].V)
						}
					}
				}
			}
		}
	}
}

func TestIdentitySmoke(t *testing.T) {
	tables, err := identitySweep(Config{Budget: time.Minute}, []Workload{GroverWorkload(8), QFTWorkload(8)})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 2*4 {
		t.Fatalf("%d rows, want one per workload x strategy", len(tb.Rows))
	}
	off, on := column(t, tb, "mul_recursions_off"), column(t, tb, "mul_recursions_on")
	for _, r := range tb.Rows {
		if r[off].Mark != "" || r[on].Mark != "" || r[on].V > r[off].V || r[off].V == 0 {
			t.Fatalf("%s/%s: recursions off %v on %v (marks %q %q)",
				r[0].Mark, r[1].Mark, r[off].V, r[on].V, r[off].Mark, r[on].Mark)
		}
	}
}

func TestReorderSmoke(t *testing.T) {
	tables, err := reorderSweep(Config{Budget: time.Minute}, []Workload{circuitWorkload(crossEntangler(12))})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows, want off/static/sifting", len(tb.Rows))
	}
	peak := column(t, tb, "peak_nodes")
	byMode := map[string]Cell{}
	for _, r := range tb.Rows {
		byMode[r[column(t, tb, "mode")].Mark] = r[peak]
	}
	off, static := byMode["off"], byMode["static"]
	if off.Mark != "" || static.Mark != "" || static.V <= 0 || static.V >= off.V {
		t.Fatalf("cross_12 peak: off %+v static %+v, want static < off", off, static)
	}
}

func TestPlannerSmoke(t *testing.T) {
	ws := tinyWorkloads()
	tables, err := plannerSweep(Config{Budget: time.Minute}, ws)
	if err != nil {
		t.Fatal(err)
	}
	cells, verdict := tables[0], tables[1]
	if len(cells.Rows) != len(ws)*6 {
		t.Fatalf("%d cells, want one per workload x strategy", len(cells.Rows))
	}
	if len(verdict.Rows) != len(ws) || verdict.CSV() != "" {
		t.Fatalf("verdict: %d rows, want one per workload, text only", len(verdict.Rows))
	}
	for i, r := range verdict.Rows {
		if r[0].Mark != ws[i].Name {
			t.Fatalf("verdict row %d is %q, want %q", i, r[0].Mark, ws[i].Name)
		}
	}
}

func TestEngineStatsSmoke(t *testing.T) {
	ws := tinyWorkloads()
	tables, err := engineStats(Config{Budget: time.Minute}, ws)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != len(ws)*3 {
		t.Fatalf("%d rows, want one per workload x strategy", len(tb.Rows))
	}
	rec := column(t, tb, "mul_recursions")
	for _, r := range tb.Rows {
		if r[rec].Mark != "" || r[rec].V == 0 {
			t.Fatalf("%s/%s: mul_recursions %+v", r[0].Mark, r[1].Mark, r[rec])
		}
	}
}

// TestDegradedCellsKeepCounters: a run the governor rescued finished,
// so its seconds cell carries the degraded mark while its counters
// stand beside it.
func TestDegradedCellsKeepCounters(t *testing.T) {
	cfg := Config{Budget: time.Minute, SoftBudget: 200, Degrade: "ladder"}
	tables, err := engineStats(cfg, []Workload{GroverWorkload(10)})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	secs, rec, gcs := column(t, tb, "seconds"), column(t, tb, "mul_recursions"), column(t, tb, "gcs")
	degraded := 0
	for _, r := range tb.Rows {
		if r[secs].Mark != "degraded" {
			continue
		}
		degraded++
		if r[rec].Mark != "" || r[rec].V == 0 || r[gcs].Mark != "" {
			t.Fatalf("%s: degraded cell hides its counters: %+v %+v", r[1].Mark, r[rec], r[gcs])
		}
	}
	if degraded == 0 {
		t.Fatalf("no degraded cell under soft budget 200:\n%s", tb.Text())
	}
}
