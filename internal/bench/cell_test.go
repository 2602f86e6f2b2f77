package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestTimeCapturesCellMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Reps: 1, Budget: time.Minute, Metrics: reg}
	m := Time(GroverWorkload(6), core.Options{Strategy: core.Sequential{}}, cfg)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	c := m.Cell
	if !c.Valid {
		t.Fatal("expected a captured run_end cell")
	}
	if c.MatVecMuls == 0 || c.NodesCreated == 0 || c.PeakNodes == 0 || c.StateNodes == 0 {
		t.Fatalf("cell totals not populated: %+v", c)
	}
	if c.Abort != "" || c.Fallbacks != 0 {
		t.Fatalf("clean run carries abort/fallback markers: %+v", c)
	}
	if c.Seconds != m.Seconds {
		t.Fatalf("cell seconds %v != measurement %v", c.Seconds, m.Seconds)
	}
	if r := c.CacheHitRate(); math.IsNaN(r) || r < 0 || r > 1 {
		t.Fatalf("hit rate %v", r)
	}
	// The shared registry aggregated the same run.
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "dd_matvec_muls_total" && s.Value == float64(c.MatVecMuls) {
			found = true
		}
	}
	if !found {
		t.Fatal("registry did not aggregate dd_matvec_muls_total to the cell total")
	}
}

func TestTimeCellOnTimeout(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Nanosecond}
	m := Time(GroverWorkload(10), core.Options{Strategy: core.Sequential{}}, cfg)
	if !m.TimedOut {
		t.Fatal("expected timeout")
	}
	if !m.Cell.Valid || m.Cell.Abort != "deadline" {
		t.Fatalf("timeout cell %+v", m.Cell)
	}
}

func TestCellHitRateNaNWithoutLookups(t *testing.T) {
	if !math.IsNaN((CellMetrics{}).CacheHitRate()) {
		t.Fatal("zero-lookup hit rate must be NaN")
	}
}

func TestSweepMetricsCSV(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	params := []int{2, 4}
	tables, err := sweep(cfg, testSpec("test sweep", params...), tinyWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	mt := tables[1]
	if mt.Name != "metrics" || mt.Text() != "" {
		t.Fatalf("metrics table %q must be CSV only", mt.Name)
	}
	out := mt.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + (baseline + len(params)) rows per workload
	want := 1 + len(tinyWorkloads())*(1+len(params))
	if len(lines) != want {
		t.Fatalf("metrics CSV has %d lines, want %d:\n%s", len(lines), want, out)
	}
	if !strings.HasPrefix(lines[0], "workload,param,seconds,mark,matvec_muls") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(out, "grover_6,baseline,") {
		t.Fatalf("missing baseline row:\n%s", out)
	}
	cols := strings.Count(lines[0], ",")
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("ragged row %q", l)
		}
	}
}

func TestEngineStatsCarriesPeakAndFallbacks(t *testing.T) {
	tables, err := EngineStats(Config{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	peak := column(t, tb, "peak_nodes")
	for _, r := range tb.Rows {
		if r[peak].Mark != "" || r[peak].V <= 0 {
			t.Fatalf("row %s/%s has no peak nodes", r[0].Mark, r[1].Mark)
		}
	}
	text := tb.Text()
	if !strings.Contains(text, "peak_nodes") || !strings.Contains(text, "fallbacks") || !strings.Contains(text, "mul-mv") {
		t.Fatalf("render missing columns:\n%s", text)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, ",peak_nodes,fallbacks\n") || strings.Contains(csv, "mul-mv") {
		t.Fatalf("CSV columns wrong:\n%s", csv)
	}
}
