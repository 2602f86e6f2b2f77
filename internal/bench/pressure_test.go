// Tests for the harness's view of the memory-pressure governor: the
// measurement marks ("parked", "degraded", "degraded(f≥X)"), a real
// degraded-but-finished cell produced under injected pressure, and the
// per-cell CSV carrying the degradation count and fidelity bound.
package bench

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
)

// TestMarkPressureClassification pins the mark strings and their
// precedence for the governor-related outcomes.
func TestMarkPressureClassification(t *testing.T) {
	cases := []struct {
		name string
		m    Measurement
		want string
	}{
		{"parked", Measurement{Parked: true}, "parked"},
		{"parked beats error", Measurement{Parked: true, Err: errors.New("x")}, "parked"},
		{"timeout beats parked", Measurement{TimedOut: true, Parked: true}, "timeout"},
		{"degraded exact", Measurement{Degraded: true, FidelityBound: 1}, "degraded"},
		{"degraded no bound", Measurement{Degraded: true}, "degraded"},
		{"degraded approx", Measurement{Degraded: true, FidelityBound: 0.98125}, "degraded(f≥0.981)"},
		{"error beats degraded", Measurement{Degraded: true, Err: errors.New("x")}, "error"},
		{"clean", Measurement{}, ""},
	}
	for _, c := range cases {
		if got := c.m.Mark(); got != c.want {
			t.Errorf("%s: Mark() = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTimeDegradedCell runs a real workload with the governor armed and
// pressure injected: the run finishes, but the cell is marked degraded
// and its telemetry carries the ladder actions. Exact-rung degradation
// keeps the fidelity bound at 1, so the mark has no f≥ suffix.
func TestTimeDegradedCell(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	eng := dd.New()
	if !eng.InjectPressure(dd.PressureLow) {
		t.Fatal("chaos injection refused under DD_CHAOS=1")
	}
	cfg := Config{SoftBudget: 1 << 20, Degrade: "ladder"}
	m := Time(GroverWorkload(6), core.Options{Engine: eng}, cfg)
	if m.Err != nil {
		t.Fatalf("degraded run failed outright: %v", m.Err)
	}
	if !m.Degraded || m.Mark() != "degraded" {
		t.Fatalf("Degraded=%v Mark=%q, want a plain degraded cell", m.Degraded, m.Mark())
	}
	if m.FidelityBound != 1 {
		t.Fatalf("exact ladder rungs reported bound %v, want 1", m.FidelityBound)
	}
	if !m.Cell.Valid || m.Cell.Degradations == 0 {
		t.Fatalf("cell telemetry missing the ladder actions: %+v", m.Cell)
	}
	if m.Cell.FidelityBound != 1 {
		t.Fatalf("cell fidelity bound %v, want 1", m.Cell.FidelityBound)
	}
}

// TestMetricsCSVDegradedCell: degraded cells render their distinct mark
// and the degradations/fidelity_bound columns; untouched cells leave
// the bound column empty rather than printing a misleading 0.
func TestMetricsCSVDegradedCell(t *testing.T) {
	const header = "workload,param,seconds,mark," +
		"matvec_muls,matmat_muls,mul_recursions,identity_skips_mv,identity_skips_mm," +
		"cache_lookups,cache_hits,cache_hit_rate," +
		"nodes_created,gcs,gc_pause_seconds,peak_nodes,fallbacks,state_nodes," +
		"degradations,fidelity_bound\n"
	arms := []arm{{label: "baseline"}, {label: "4"}}
	ms := [][]Measurement{{
		{Seconds: 1, Cell: CellMetrics{Valid: true, Seconds: 1}},
		{Seconds: 0.5, Degraded: true, FidelityBound: 0.98,
			Cell: CellMetrics{Valid: true, Seconds: 0.5, Degradations: 3, FidelityBound: 0.98}},
	}}
	csv := metricsTable([]Workload{{Name: "w"}}, arms, ms).CSV()
	if !strings.HasPrefix(csv, header) {
		t.Fatalf("csv header mismatch:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + baseline + cell:\n%s", len(lines), csv)
	}
	baseline, cell := lines[1], lines[2]
	if !strings.HasSuffix(baseline, ",0,") {
		t.Errorf("untouched baseline row should end \",0,\" (empty bound): %q", baseline)
	}
	if !strings.Contains(cell, ",degraded(f≥0.98),") {
		t.Errorf("degraded cell row lost its mark: %q", cell)
	}
	if !strings.HasSuffix(cell, ",3,0.98") {
		t.Errorf("degraded cell row should end \",3,0.98\": %q", cell)
	}
}
