package bench

import (
	"math"

	"repro/internal/obs"
)

// CellMetrics is the per-cell observability snapshot an experiment
// carries alongside its timing: the run totals harvested from the
// run's closing run_end event (see internal/obs). Aborted cells
// (timeout / oom) still carry the partial run's totals, which is
// exactly what explains *why* the cell failed.
type CellMetrics struct {
	// Valid reports whether a run_end event was captured; runs that
	// fail before the simulation starts (config errors) have none.
	Valid   bool
	Seconds float64

	MatVecMuls uint64
	MatMatMuls uint64
	// MulRecursions counts multiplication-kernel recursion steps;
	// IdentitySkipsMV/MM the identity short-circuits taken inside them.
	// Their ratio is the identity-aware kernels' effect per cell.
	MulRecursions   uint64
	IdentitySkipsMV uint64
	IdentitySkipsMM uint64
	CacheLookups    uint64
	CacheHits       uint64
	NodesCreated    uint64

	GCs            uint64
	GCPauseSeconds float64

	PeakNodes  int
	Fallbacks  int
	StateNodes int // final state DD size
	// PeakStateNodes is the largest state DD along the run: the maximum
	// over its step events.
	PeakStateNodes int

	// Degradations counts the memory-pressure governor's ladder actions
	// during the run; FidelityBound is the run's cumulative fidelity
	// lower bound (0 for runs the governor never touched).
	Degradations  int
	FidelityBound float64

	// Abort is the failure kind of an aborted run ("" for clean runs).
	Abort string
}

// CacheHitRate returns hits/lookups, NaN when the caches were never
// consulted — renderers must show "-" or an empty cell, not 0%.
func (c CellMetrics) CacheHitRate() float64 {
	if c.CacheLookups == 0 {
		return math.NaN()
	}
	return float64(c.CacheHits) / float64(c.CacheLookups)
}

// runEndCapture is the sink the harness attaches to every measured
// run: it keeps the last run_end event (multi-run workloads such as
// shor's semiclassical loop emit several; the final one carries the
// totals of the run that produced the cell's outcome) and the largest
// state DD any step reported.
type runEndCapture struct {
	ev        obs.Event
	ok        bool
	peakState int
}

func (s *runEndCapture) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindStep:
		s.peakState = max(s.peakState, e.StateNodes)
	case obs.KindRunEnd:
		s.ev, s.ok = e, true
	}
}

// cell converts the captured run_end into a CellMetrics.
func (s *runEndCapture) cell(seconds float64) CellMetrics {
	if !s.ok {
		return CellMetrics{Seconds: seconds}
	}
	e := s.ev
	return CellMetrics{
		Valid:           true,
		Seconds:         seconds,
		MatVecMuls:      e.MatVecMuls,
		MatMatMuls:      e.MatMatMuls,
		MulRecursions:   e.MulRecursions,
		IdentitySkipsMV: e.IdentitySkipsMV,
		IdentitySkipsMM: e.IdentitySkipsMM,
		CacheLookups:    e.CacheLookups,
		CacheHits:       e.CacheHits,
		NodesCreated:    e.NodesCreated,
		GCs:             e.GCs,
		GCPauseSeconds:  float64(e.GCPauseNS) / 1e9,
		PeakNodes:       e.PeakNodes,
		Fallbacks:       e.Fallbacks,
		StateNodes:      e.StateNodes,
		Degradations:    e.Degradations,
		FidelityBound:   e.FidelityBound,
		Abort:           e.Abort,
		PeakStateNodes:  s.peakState,
	}
}

// metricsTable is a sweep's per-cell telemetry in long format (CSV
// only): one row per measured cell, each workload's baseline first.
// Cells that died before the simulation started have no telemetry and
// no row; aborted cells keep the partial run's counters.
func metricsTable(ws []Workload, arms []arm, ms [][]Measurement) *Table {
	t := &Table{Name: "metrics", Columns: cols(CSVOnly,
		"workload", "param", "seconds", "mark",
		"matvec_muls", "matmat_muls", "mul_recursions", "identity_skips_mv", "identity_skips_mm",
		"cache_lookups", "cache_hits", "cache_hit_rate",
		"nodes_created", "gcs", "gc_pause_seconds", "peak_nodes", "fallbacks", "state_nodes",
		"degradations", "fidelity_bound")}
	for wi, w := range ws {
		for ai, m := range ms[wi] {
			c := m.Cell
			if !c.Valid {
				continue
			}
			bound := math.NaN() // runs the governor never touched
			if c.FidelityBound > 0 {
				bound = c.FidelityBound
			}
			t.Rows = append(t.Rows, []Cell{
				label(w.Name), label(arms[ai].label), {V: c.Seconds, Unit: Seconds}, label(m.Mark()),
				count(c.MatVecMuls), count(c.MatMatMuls), count(c.MulRecursions),
				count(c.IdentitySkipsMV), count(c.IdentitySkipsMM),
				count(c.CacheLookups), count(c.CacheHits), {V: c.CacheHitRate(), Unit: Percent},
				count(c.NodesCreated), count(c.GCs), {V: c.GCPauseSeconds, Unit: Seconds},
				count(c.PeakNodes), count(c.Fallbacks), count(c.StateNodes),
				count(c.Degradations), {V: bound, Unit: Fidelity},
			})
		}
	}
	return t
}
