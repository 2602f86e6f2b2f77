package core

import (
	"errors"
	"time"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/obs"
)

// runObserver bridges one simulation run to the obs layer: it emits
// structured events into Options.EventSink, records telemetry into
// Options.Metrics, collects the Result.Trace points, and receives the
// engine's low-level callbacks (dd.EngineObserver) for GC and node
// telemetry. It is nil — and completely free — unless the run asked
// for any of the three.
type runObserver struct {
	sink   obs.Sink
	met    *runMetrics
	eng    *dd.Engine
	record bool
	trace  []TracePoint

	seq     uint64
	started time.Time
	circuit string
	total   int
	applied int // gate index of the last emitted step

	startStats dd.Stats // engine snapshot at run start (run totals)
	prev       dd.Stats // snapshot at the previous step boundary (deltas)
}

// runMetrics holds the instruments a run updates. Names are stable API
// (documented in DESIGN.md); re-registering on a shared registry
// returns the same instruments, so sweeps aggregate across runs.
type runMetrics struct {
	steps, matvec, matmat    *obs.Counter
	mulRecursions            *obs.Counter
	identitySkipsMV          *obs.Counter
	identitySkipsMM          *obs.Counter
	cacheLookups, cacheHits  *obs.Counter
	cacheInvalidations       *obs.Counter
	nodesCreated             *obs.Counter
	gcs, fallbacks, aborts   *obs.Counter
	checkpoints              *obs.Counter
	verifications            *obs.Counter
	verifyFailures           *obs.Counter
	repairs                  *obs.Counter
	plannerDecisions         *obs.Counter
	plannerFlushes           *obs.Counter
	reorders                 *obs.Counter
	reorderSwaps             *obs.Counter
	reorderSiftPasses        *obs.Counter
	pressureActions          *obs.Counter
	pressureParks            *obs.Counter
	pressureApprox           *obs.Counter
	pressureLevel            *obs.Gauge
	pressureFidelity         *obs.Gauge
	liveNodes                *obs.Gauge
	plannerWindow            *obs.Gauge
	reorderNodesBefore       *obs.Gauge
	reorderNodesAfter        *obs.Gauge
	stepSeconds, gcPauseSecs *obs.Histogram
	stateNodes, opNodes      *obs.Histogram
}

func newRunMetrics(r *obs.Registry) *runMetrics {
	nodeBuckets := obs.ExponentialBuckets(1, 4, 12)
	latBuckets := obs.ExponentialBuckets(1e-6, 4, 12)
	gcBuckets := obs.ExponentialBuckets(1e-6, 4, 10)
	return &runMetrics{
		steps:              r.Counter("dd_steps_total", "Applied operations (top-level matrix-vector steps)."),
		matvec:             r.Counter("dd_matvec_muls_total", "Top-level matrix-vector multiplications (Eq. 1 cost)."),
		matmat:             r.Counter("dd_matmat_muls_total", "Top-level matrix-matrix multiplications (Eq. 2 cost)."),
		mulRecursions:      r.Counter("dd_mul_recursions_total", "Multiplication-kernel recursion steps (mat-vec and mat-mat)."),
		identitySkipsMV:    r.Counter("dd_identity_skips_mv_total", "Identity short-circuits taken in matrix-vector multiplications."),
		identitySkipsMM:    r.Counter("dd_identity_skips_mm_total", "Identity short-circuits taken in matrix-matrix multiplications."),
		cacheLookups:       r.Counter("dd_cache_lookups_total", "Compute-cache lookups across all four caches."),
		cacheHits:          r.Counter("dd_cache_hits_total", "Compute-cache hits across all four caches."),
		cacheInvalidations: r.Counter("dd_cache_invalidations_total", "Compute-cache invalidations (GC, aborts, explicit clears)."),
		nodesCreated:       r.Counter("dd_nodes_created_total", "Fresh DD nodes interned into the unique tables."),
		gcs:                r.Counter("dd_gc_total", "Engine garbage collections."),
		fallbacks:          r.Counter("dd_fallbacks_total", "Budget aborts degraded to sequential replay."),
		aborts:             r.Counter("dd_aborts_total", "Runs aborted (deadline, budget, cancellation, injection, panic)."),
		checkpoints:        r.Counter("dd_checkpoints_total", "Checkpoints handed to the caller."),
		verifications:      r.Counter("dd_verifications_total", "Integrity verification passes."),
		verifyFailures:     r.Counter("dd_verify_failures_total", "Verification passes that detected corruption."),
		repairs:            r.Counter("dd_repairs_total", "Corruption recoveries (state rebuilt and replayed)."),
		plannerDecisions:   r.Counter("dd_planner_decisions_total", "Planner flush evaluations (one per gate absorbed under the planner)."),
		plannerFlushes:     r.Counter("dd_planner_flushes_total", "Planner flush decisions taken."),
		reorders:           r.Counter("dd_reorder_total", "Dynamic variable-reordering (sifting) passes."),
		reorderSwaps:       r.Counter("dd_reorder_swaps_total", "Adjacent level swaps performed by dynamic reordering."),
		reorderSiftPasses:  r.Counter("dd_reorder_sift_passes_total", "Variables sifted by dynamic reordering."),
		pressureActions:    r.Counter("dd_pressure_actions_total", "Degradation-ladder actions taken by the memory-pressure governor."),
		pressureParks:      r.Counter("dd_pressure_parks_total", "Runs parked behind a checkpoint by the pressure governor (rung 5)."),
		pressureApprox:     r.Counter("dd_pressure_approx_total", "Fidelity-bounded state approximations taken under pressure (rung 4)."),
		pressureLevel:      r.Gauge("dd_pressure_level", "Pressure band of the governor's last action (1 low, 2 high, 3 critical)."),
		pressureFidelity:   r.Gauge("dd_pressure_fidelity_bound_ppm", "Cumulative fidelity lower bound after approximations, in parts per million."),
		liveNodes:          r.Gauge("dd_live_nodes", "Live nodes in the unique tables (vector + matrix)."),
		plannerWindow:      r.Gauge("dd_planner_window", "Planner target combination window after the last decision."),
		reorderNodesBefore: r.Gauge("dd_reorder_nodes_before", "State DD size entering the last sifting pass."),
		reorderNodesAfter:  r.Gauge("dd_reorder_nodes_after", "State DD size leaving the last sifting pass."),
		stepSeconds:        r.Histogram("dd_step_seconds", "Wall time per applied operation.", latBuckets),
		gcPauseSecs:        r.Histogram("dd_gc_pause_seconds", "Engine GC pause durations.", gcBuckets),
		stateNodes:         r.Histogram("dd_state_nodes", "State DD size after each applied operation.", nodeBuckets),
		opNodes:            r.Histogram("dd_op_nodes", "Operation DD size of each applied matrix.", nodeBuckets),
	}
}

// newRunObserver returns nil when the run requests no observability at
// all — the runner then skips every per-step size traversal and clock
// read exactly as before.
func newRunObserver(opt Options, eng *dd.Engine) *runObserver {
	if opt.EventSink == nil && opt.Metrics == nil && !opt.RecordTrace {
		return nil
	}
	o := &runObserver{sink: opt.EventSink, eng: eng, record: opt.RecordTrace}
	if opt.Metrics != nil {
		o.met = newRunMetrics(opt.Metrics)
	}
	return o
}

// emit stamps and delivers one event; a nil sink drops it.
func (o *runObserver) emit(e obs.Event) {
	if o.sink == nil {
		return
	}
	o.seq++
	e.Seq = o.seq
	e.TimeUnixNano = time.Now().UnixNano()
	e.VLive = o.eng.VNodeCount()
	e.MLive = o.eng.MNodeCount()
	o.sink.Emit(e)
}

func (o *runObserver) runStart(c *circuit.Circuit, startGate int) {
	o.started = time.Now()
	o.circuit = c.Name
	o.total = len(c.Gates)
	o.applied = startGate
	o.startStats = o.eng.Stats()
	o.prev = o.startStats
	o.emit(obs.Event{Kind: obs.KindRunStart, Gate: startGate, Circuit: c.Name, TotalGates: o.total})
}

// stepInfo is what the runner knows about one applied operation.
type stepInfo struct {
	gate, combined      int
	opNodes, stateNodes int
	wall                time.Duration
	fromBlock           bool
	block               string
	reuse               bool
	fallback            bool
}

// step records one applied operation: trace point, metrics, and a
// KindStep event carrying the engine-counter deltas since the previous
// step (GC activity between steps is attributed to the following one).
func (o *runObserver) step(si stepInfo) {
	o.applied = si.gate
	if o.record {
		o.trace = append(o.trace, TracePoint{
			GateIndex:  si.gate,
			OpSize:     si.opNodes,
			StateSize:  si.stateNodes,
			Combined:   si.combined,
			FromBlock:  si.fromBlock,
			BlockName:  si.block,
			BlockReuse: si.reuse,
			Fallback:   si.fallback,
		})
	}
	cur := o.eng.Stats()
	d := obs.Event{
		Kind:       obs.KindStep,
		Gate:       si.gate,
		WallNS:     si.wall.Nanoseconds(),
		Combined:   si.combined,
		OpNodes:    si.opNodes,
		StateNodes: si.stateNodes,
		Fallback:   si.fallback,
		FromBlock:  si.fromBlock,
		Block:      si.block,
		BlockReuse: si.reuse,
	}
	setCounterDeltas(&d, cur, o.prev)
	o.prev = cur
	if m := o.met; m != nil {
		m.steps.Inc()
		m.matvec.Add(d.MatVecMuls)
		m.matmat.Add(d.MatMatMuls)
		m.mulRecursions.Add(d.MulRecursions)
		m.identitySkipsMV.Add(d.IdentitySkipsMV)
		m.identitySkipsMM.Add(d.IdentitySkipsMM)
		m.cacheLookups.Add(d.CacheLookups)
		m.cacheHits.Add(d.CacheHits)
		m.nodesCreated.Add(d.NodesCreated)
		m.stepSeconds.Observe(si.wall.Seconds())
		m.stateNodes.Observe(float64(si.stateNodes))
		m.opNodes.Observe(float64(si.opNodes))
		m.liveNodes.Set(int64(o.eng.VNodeCount() + o.eng.MNodeCount()))
	}
	o.emit(d)
}

func (o *runObserver) fallback(gate, gates int) {
	if o.met != nil {
		o.met.fallbacks.Inc()
	}
	o.emit(obs.Event{Kind: obs.KindFallback, Gate: gate, Combined: gates})
}

func (o *runObserver) checkpointEv(gate int) {
	if o.met != nil {
		o.met.checkpoints.Inc()
	}
	o.emit(obs.Event{Kind: obs.KindCheckpoint, Gate: gate})
}

// verifyEv records one verification pass; check names the failing
// check, empty when the pass was clean.
func (o *runObserver) verifyEv(gate int, check string) {
	if o.met != nil {
		o.met.verifications.Inc()
		if check != "" {
			o.met.verifyFailures.Inc()
		}
	}
	o.emit(obs.Event{Kind: obs.KindVerify, Gate: gate, Check: check})
}

// plannerEv records one flush decision of the adaptive strategy
// planner: which trip fired, the sizes it weighed, and the target
// window after adaptation.
func (o *runObserver) plannerEv(gate int, d PlannerDecision) {
	if o.met != nil {
		o.met.plannerDecisions.Add(uint64(d.Combined))
		o.met.plannerFlushes.Inc()
		o.met.plannerWindow.Set(int64(d.Window))
	}
	o.emit(obs.Event{
		Kind:       obs.KindPlanner,
		Gate:       gate,
		Combined:   d.Combined,
		OpNodes:    d.OpNodes,
		StateNodes: d.StateNodes,
		Decision:   d.Reason,
		Window:     d.Window,
	})
}

// reorderEv records one dynamic reordering (sifting) pass.
func (o *runObserver) reorderEv(gate int, sr dd.SiftResult) {
	if o.met != nil {
		o.met.reorders.Inc()
		o.met.reorderSwaps.Add(uint64(sr.Swaps))
		o.met.reorderSiftPasses.Add(uint64(sr.Passes))
		o.met.reorderNodesBefore.Set(int64(sr.Before))
		o.met.reorderNodesAfter.Set(int64(sr.After))
	}
	o.emit(obs.Event{
		Kind:        obs.KindReorder,
		Gate:        gate,
		Swaps:       uint64(sr.Swaps),
		SiftPasses:  uint64(sr.Passes),
		NodesBefore: sr.Before,
		NodesAfter:  sr.After,
	})
}

// pressureEv records one action of the memory-pressure governor's
// degradation ladder.
func (o *runObserver) pressureEv(gate int, d Degradation) {
	if o.met != nil {
		o.met.pressureActions.Inc()
		o.met.pressureLevel.Set(int64(pressureLevelOrdinal(d.Level)))
		switch d.Action {
		case "park":
			o.met.pressureParks.Inc()
		case "approx":
			o.met.pressureApprox.Inc()
			o.met.pressureFidelity.Set(int64(d.Fidelity * 1e6))
		}
	}
	o.emit(obs.Event{
		Kind:        obs.KindPressure,
		Gate:        gate,
		Level:       d.Level,
		Rung:        d.Rung,
		Action:      d.Action,
		NodesBefore: d.LiveBefore,
		NodesAfter:  d.LiveAfter,
		Fidelity:    d.Fidelity,
	})
}

// pressureLevelOrdinal maps a level's wire name back to its ordinal
// for the gauge (0 for unknown names).
func pressureLevelOrdinal(level string) int {
	switch level {
	case "low":
		return 1
	case "high":
		return 2
	case "critical":
		return 3
	}
	return 0
}

// repairEv records a corruption recovery; replayed is the number of
// gates re-applied on the fresh engine.
func (o *runObserver) repairEv(gate, replayed int, check string) {
	if o.met != nil {
		o.met.repairs.Inc()
	}
	o.emit(obs.Event{Kind: obs.KindRepair, Gate: gate, Combined: replayed, Check: check})
}

// setCounterDeltas fills e's engine-counter fields with the growth
// from base to cur.
func setCounterDeltas(e *obs.Event, cur, base dd.Stats) {
	e.MatVecMuls = cur.MatVecMuls - base.MatVecMuls
	e.MatMatMuls = cur.MatMatMuls - base.MatMatMuls
	e.MulRecursions = cur.MulRecursions - base.MulRecursions
	e.IdentitySkipsMV = cur.IdentitySkipsMV - base.IdentitySkipsMV
	e.IdentitySkipsMM = cur.IdentitySkipsMM - base.IdentitySkipsMM
	e.CacheLookups = cur.CacheLookups - base.CacheLookups
	e.CacheHits = cur.CacheHits - base.CacheHits
	e.NodesCreated = cur.NodesCreated - base.NodesCreated
	e.GCs = cur.GCs - base.GCs
	e.GCPauseNS = (cur.GCPause - base.GCPause).Nanoseconds()
}

// engineSwapped re-points the observer at the fresh engine after a
// corruption repair. The fresh engine continues the retired one's
// counters, so run_end totals need no adjustment; the next step's
// deltas count from retired, the retired engine's final snapshot.
func (o *runObserver) engineSwapped(retired dd.Stats, fresh *dd.Engine) {
	o.eng = fresh
	o.prev = retired
}

// finish emits the abort event (for failed runs) and the closing
// run_end event carrying the run totals.
func (o *runObserver) finish(applied, stateNodes, fallbacks, degradations int, fidelityBound float64, err error) {
	abort := ""
	var re *RunError
	if errors.As(err, &re) {
		abort = re.Kind.String()
		if o.met != nil {
			o.met.aborts.Inc()
		}
		o.emit(obs.Event{Kind: obs.KindAbort, Gate: re.GateIndex, Abort: abort})
	}
	cur := o.eng.Stats()
	e := obs.Event{
		Kind:          obs.KindRunEnd,
		Gate:          applied,
		Circuit:       o.circuit,
		TotalGates:    o.total,
		WallNS:        time.Since(o.started).Nanoseconds(),
		StateNodes:    stateNodes,
		PeakNodes:     cur.PeakVNodes + cur.PeakMNodes,
		Fallbacks:     fallbacks,
		Abort:         abort,
		Swaps:         cur.ReorderSwaps - o.startStats.ReorderSwaps,
		SiftPasses:    cur.SiftPasses - o.startStats.SiftPasses,
		Degradations:  degradations,
		FidelityBound: runEndFidelity(degradations, fidelityBound),
	}
	setCounterDeltas(&e, cur, o.startStats)
	o.emit(e)
}

// runEndFidelity keeps the run_end fidelity_bound field omitted (zero)
// for runs the governor never touched, and meaningful — even when
// still 1.0 — for degraded ones.
func runEndFidelity(degradations int, bound float64) float64 {
	if degradations == 0 && bound >= 1 {
		return 0
	}
	return bound
}

// --- dd.EngineObserver ---------------------------------------------------

// ObserveNode tracks the live-node gauge; it runs on the engine's node
// interning path, so it is a single atomic store and nothing else.
func (o *runObserver) ObserveNode(matrix bool, live int) {
	if o.met != nil {
		o.met.liveNodes.Set(int64(live))
	}
}

// ObserveGC emits a KindGC event anchored at the gate being processed.
func (o *runObserver) ObserveGC(gi dd.GCInfo) {
	if o.met != nil {
		o.met.gcs.Inc()
		o.met.gcPauseSecs.Observe(gi.Pause.Seconds())
		o.met.liveNodes.Set(int64(gi.VLive + gi.MLive))
	}
	o.emit(obs.Event{
		Kind:      obs.KindGC,
		Gate:      o.applied,
		GCPauseNS: gi.Pause.Nanoseconds(),
		GCFreed:   gi.Freed,
	})
}

// ObserveCacheClear counts compute-cache invalidations.
func (o *runObserver) ObserveCacheClear() {
	if o.met != nil {
		o.met.cacheInvalidations.Inc()
	}
}
