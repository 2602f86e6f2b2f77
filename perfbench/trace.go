package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/obs"
)

// perLayer lists the per-layer metrics of a traced run's JSON result,
// with units, in report order; BENCHMARK.json's per_layer list matches
// it (a test checks). A metric a workload does not exercise reads 0.
// Times that only some workloads exercise (layerTimes) appear here as
// shares of the run or job time instead, so that no time reads the
// same 0 on every run of a workload.
var perLayer = []struct{ name, unit string }{
	{"circuit.parse_s", "s"},
	{"circuit.gates", "count"},
	{"core.run_s", "s"},
	{"core.self_s", "s"},
	{"core.matvec_steps", "count"},
	{"core.matmat_steps", "count"},
	{"core.planner_flushes", "count"},
	{"core.fallbacks", "count"},
	{"core.degradations", "count"},
	{"core.verify_passes", "count"},
	{"core.checkpoints", "count"},
	{"core.checkpoint_save_share", "ratio"},
	{"core.checkpoint_bytes", "bytes"},
	{"core.cpu_share", "ratio"},
	{"dd.gate_build_s", "s"},
	{"dd.apply_s", "s"},
	{"dd.combine_share", "ratio"},
	{"dd.gc_share", "ratio"},
	{"dd.sift_share", "ratio"},
	{"dd.audit_share", "ratio"},
	{"dd.gcs", "count"},
	{"dd.sift_swaps", "count"},
	{"dd.mul_recursions", "count"},
	{"dd.add_recursions", "count"},
	{"dd.nodes_created", "count"},
	{"dd.identity_skips", "count"},
	{"dd.hit_ratio.add_v", "ratio"},
	{"dd.hit_ratio.add_m", "ratio"},
	{"dd.hit_ratio.mul_mv", "ratio"},
	{"dd.hit_ratio.mul_mm", "ratio"},
	{"dd.cpu_share", "ratio"},
	{"cnum.representatives", "count"},
	{"cnum.cpu_share", "ratio"},
	{"serve.submit_share", "ratio"},
	{"serve.decode_share", "ratio"},
	{"serve.wait_share", "ratio"},
	{"serve.run_share", "ratio"},
	{"serve.polls_per_job", "count"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.journal_bytes_per_job", "bytes"},
	{"serve.cpu_share", "ratio"},
	{"batch.queue_depth.max", "count"},
	{"runtime.cpu_share", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
}

// layerTimes are the per-layer times only some workloads exercise. The
// report prints them in seconds; the JSON result carries the shares in
// perLayer. dd.*_s and core.checkpoint_save_s are per circuit; the
// serve.* shares divide by the traced phase's median job latency.
var layerTimes = []struct{ name, unit string }{
	{"dd.combine_s", "s"},
	{"dd.gc_s", "s"},
	{"dd.sift_s", "s"},
	{"dd.audit_s", "s"},
	{"core.checkpoint_save_s", "s"},
	{"serve.submit_s.p50", "s"},
	{"serve.submit_s.p90", "s"},
	{"serve.decode_s", "s"},
	{"serve.wait_s.p50", "s"},
	{"serve.run_s.p50", "s"},
	{"loadgen.lag_s.p90", "s"},
}

// fillPerLayer sets every per-layer metric and time the workload did
// not report to 0 and notes which ones do not apply.
func fillPerLayer(out *outcome) {
	var na []string
	for _, list := range [][]struct{ name, unit string }{perLayer, layerTimes} {
		for _, m := range list {
			if _, ok := out.metrics[m.name]; !ok {
				out.set(m.name, m.unit, 0)
				na = append(na, m.name)
			}
		}
	}
	if len(na) > 0 {
		out.note("not exercised by this workload (reported as 0): %v", na)
	}
}

// eventLog is an obs.Sink keeping a run's events in memory.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

func (l *eventLog) count(k obs.Kind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// kernelReplay is what re-executing a run's flush schedule on a fresh
// engine measured, with spans around each engine call.
type kernelReplay struct {
	build, combine, apply, gc, sift, audit float64
	ok                                     bool
	siftOK                                 bool
	reason                                 string
}

func (k *kernelReplay) ddSeconds() float64 {
	return k.build + k.combine + k.apply + k.gc + k.sift + k.audit
}

// replay re-executes the run recorded in events: each step's gates are
// built (Engine.GateDD) and combined (Engine.MulMat) in the runner's
// order and applied (Engine.MulVec); collections, sifting passes and
// audits happen where the run had them. It then checks that the
// replay reproduced the run's top-level multiplication counts, final
// variable order and final state (exchanged through dd.WriteV/ReadV).
func replay(c *circuit.Circuit, events []obs.Event, res *core.Result) kernelReplay {
	k := kernelReplay{siftOK: true}
	n := c.NQubits
	eng := dd.New()
	v := eng.ZeroState(n)
	var order, pos []int
	var ctl []dd.Control
	gate := func(g circuit.Gate) dd.MEdge {
		if order == nil {
			return eng.GateDD(g.Matrix, n, g.Target, g.Controls)
		}
		ctl = ctl[:0]
		for _, q := range g.Controls {
			ctl = append(ctl, dd.Control{Qubit: pos[q.Qubit], Negative: q.Negative})
		}
		return eng.GateDD(g.Matrix, n, pos[g.Target], ctl)
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindStep:
			if ev.FromBlock {
				k.reason = "block steps are not replayed"
				return k
			}
			from := ev.Gate - ev.Combined
			var acc dd.MEdge
			for i := from; i < ev.Gate; i++ {
				t0 := time.Now()
				gd := gate(c.Gates[i])
				t1 := time.Now()
				k.build += t1.Sub(t0).Seconds()
				if i == from {
					acc = gd
					continue
				}
				acc = eng.MulMat(gd, acc)
				k.combine += time.Since(t1).Seconds()
			}
			t0 := time.Now()
			v = eng.MulVec(acc, v)
			k.apply += time.Since(t0).Seconds()
		case obs.KindGC:
			t0 := time.Now()
			eng.GarbageCollect([]dd.VEdge{v}, nil)
			k.gc += time.Since(t0).Seconds()
		case obs.KindReorder:
			if order == nil {
				order = dd.IdentityOrder(n)
			}
			next := slices.Clone(order)
			t0 := time.Now()
			sv, sr := eng.SiftV(v, next, 8*n*n)
			k.sift += time.Since(t0).Seconds()
			if uint64(sr.Swaps) != ev.Swaps {
				k.siftOK = false
			}
			v, order = sv, next
			pos = make([]int, n)
			for l, q := range order {
				pos[q] = l
			}
		case obs.KindVerify:
			t0 := time.Now()
			if err := eng.Audit(); err != nil {
				k.reason = "replay audit: " + err.Error()
			}
			k.audit += time.Since(t0).Seconds()
		}
	}
	st := eng.Stats()
	if int(st.MatVecMuls) != res.MatVecSteps || int(st.MatMatMuls) != res.MatMatSteps {
		k.reason = fmt.Sprintf("replay made %d/%d mat-vec/mat-mat products, the run %d/%d",
			st.MatVecMuls, st.MatMatMuls, res.MatVecSteps, res.MatMatSteps)
		return k
	}
	if !slices.Equal(order, res.Order) && !(len(res.Order) == 0 && slices.Equal(order, dd.IdentityOrder(n))) {
		k.reason = fmt.Sprintf("replay order %v, run order %v", order, res.Order)
		return k
	}
	var buf bytes.Buffer
	if err := dd.WriteV(&buf, res.State); err != nil {
		k.reason = "write state: " + err.Error()
		return k
	}
	runState, err := dd.ReadV(&buf, eng)
	if err != nil {
		k.reason = "read state: " + err.Error()
		return k
	}
	if f := eng.Fidelity(v, runState); f < 1-1e-9 {
		k.reason = fmt.Sprintf("replay state fidelity %.12f against the run", f)
		return k
	}
	k.ok = k.reason == ""
	return k
}

// layerTotals accumulates per-circuit layer numbers over traced runs.
type layerTotals struct {
	runs                                       int
	runS, selfS, replayedRunS                  float64
	build, combine, apply, gc, sift, audit     float64
	gates, matvec, matmat, planner, fallbacks  float64
	degradations, verifies, ckpts, ckptS       float64
	ckptBytes                                  float64
	gcs, swaps, mulRec, addRec, created, skips float64
	reps                                       float64
	hits, lookups                              [4]float64
	replayed                                   int
	siftUnresolved                             bool
	reasons                                    []string
}

// tracedCircuit is one traced core.RunContext call.
type tracedCircuit struct {
	c         *circuit.Circuit
	runS      float64
	res       *core.Result
	log       *eventLog
	ckpts     int
	ckptS     float64
	ckptBytes int64
}

// runTraced runs c with the obs event stream attached, timing the
// RunContext call and, through the OnCheckpoint hook, each
// core.SaveCheckpoint. The CPU profile, when non-nil, covers the call.
func runTraced(c *circuit.Circuit, opt core.Options, dir string, prof *cpuProfile) (*tracedCircuit, error) {
	tc := &tracedCircuit{c: c, log: &eventLog{}}
	opt.EventSink = tc.log
	if opt.OnCheckpoint != nil {
		path := filepath.Join(dir, "ckpt-traced.bin")
		opt.OnCheckpoint = func(ck *core.Checkpoint) error {
			t0 := time.Now()
			err := core.SaveCheckpoint(path, ck)
			tc.ckptS += time.Since(t0).Seconds()
			tc.ckpts++
			if info, serr := os.Stat(path); serr == nil {
				tc.ckptBytes += info.Size()
			}
			return err
		}
	}
	if prof != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	res, err := core.RunContext(context.Background(), c, opt)
	tc.runS = time.Since(t0).Seconds()
	tc.res = res
	if prof != nil {
		if perr := prof.stop(); perr != nil {
			return nil, perr
		}
	}
	return tc, err
}

// add folds one traced circuit and its replay into the totals.
func (t *layerTotals) add(tc *tracedCircuit) {
	res := tc.res
	t.runs++
	t.runS += tc.runS
	t.gates += float64(len(tc.c.Gates))
	t.matvec += float64(res.MatVecSteps)
	t.matmat += float64(res.MatMatSteps)
	t.planner += float64(tc.log.count(obs.KindPlanner))
	t.fallbacks += float64(res.Fallbacks)
	t.degradations += float64(len(res.Degradations))
	t.verifies += float64(tc.log.count(obs.KindVerify))
	t.ckpts += float64(tc.ckpts)
	t.ckptS += tc.ckptS
	t.ckptBytes += float64(tc.ckptBytes)
	st := res.Stats
	t.gcs += float64(st.GCs)
	t.swaps += float64(st.ReorderSwaps)
	t.mulRec += float64(st.MulRecursions)
	t.addRec += float64(st.AddRecursions)
	t.created += float64(st.NodesCreated)
	t.skips += float64(st.IdentitySkipsMV + st.IdentitySkipsMM)
	t.reps += float64(res.Engine.WeightTableSize())
	for i, cs := range []dd.CacheStats{st.AddV, st.AddM, st.MulMV, st.MulMM} {
		t.hits[i] += float64(cs.Hits)
		t.lookups[i] += float64(cs.Lookups)
	}

	k := replay(tc.c, tc.log.events, res)
	if !k.ok {
		t.reasons = append(t.reasons, k.reason)
		return
	}
	t.replayed++
	if !k.siftOK {
		t.siftUnresolved = true
	}
	t.build += k.build
	t.combine += k.combine
	t.apply += k.apply
	t.gc += k.gc
	t.sift += k.sift
	t.audit += k.audit
	t.selfS += tc.runS - k.ddSeconds()
	t.replayedRunS += tc.runS
}

// report sets the core, dd and cnum metrics: per-circuit means, cache
// hit ratios over all lookups, and replay timings over the circuits
// whose replay passed its self-check.
func (t *layerTotals) report(out *outcome, prof *cpuProfile) {
	per := func(x float64) float64 { return ratio(x, float64(t.runs)) }
	perReplayed := func(x float64) float64 { return ratio(x, float64(t.replayed)) }
	out.set("circuit.gates", "count", per(t.gates))
	out.set("core.run_s", "s", per(t.runS))
	out.set("core.matvec_steps", "count", per(t.matvec))
	out.set("core.matmat_steps", "count", per(t.matmat))
	out.set("core.planner_flushes", "count", per(t.planner))
	out.set("core.fallbacks", "count", per(t.fallbacks))
	out.set("core.degradations", "count", per(t.degradations))
	out.set("core.verify_passes", "count", per(t.verifies))
	out.set("core.checkpoints", "count", per(t.ckpts))
	out.set("core.checkpoint_save_s", "s", per(t.ckptS))
	out.set("core.checkpoint_save_share", "ratio", ratio(t.ckptS, t.runS))
	out.set("core.checkpoint_bytes", "bytes", ratio(t.ckptBytes, t.ckpts))
	out.set("dd.gcs", "count", per(t.gcs))
	out.set("dd.sift_swaps", "count", per(t.swaps))
	out.set("dd.mul_recursions", "count", per(t.mulRec))
	out.set("dd.add_recursions", "count", per(t.addRec))
	out.set("dd.nodes_created", "count", per(t.created))
	out.set("dd.identity_skips", "count", per(t.skips))
	for i, name := range []string{"add_v", "add_m", "mul_mv", "mul_mm"} {
		out.set("dd.hit_ratio."+name, "ratio", ratio(t.hits[i], t.lookups[i]))
	}
	out.set("cnum.representatives", "count", per(t.reps))
	out.set("trace.coverage", "ratio", ratio(float64(t.replayed), float64(t.runs)))
	if t.replayed > 0 {
		out.set("core.self_s", "s", perReplayed(t.selfS))
		out.set("dd.gate_build_s", "s", perReplayed(t.build))
		out.set("dd.apply_s", "s", perReplayed(t.apply))
		for _, k := range []struct {
			name string
			sum  float64
		}{{"combine", t.combine}, {"gc", t.gc}, {"sift", t.sift}, {"audit", t.audit}} {
			if k.name == "sift" && t.siftUnresolved {
				continue
			}
			out.set("dd."+k.name+"_s", "s", perReplayed(k.sum))
			out.set("dd."+k.name+"_share", "ratio", ratio(k.sum, t.replayedRunS))
		}
	}
	if t.siftUnresolved {
		out.set("dd.sift_s", "s", 0)
		out.set("dd.sift_share", "ratio", 0)
		out.note("unresolved: dd.sift_s and dd.sift_share (reported as 0): the replay's sifting passes did not reproduce the run's swap counts")
	}
	if t.replayed < t.runs {
		out.note("replay self-check failed on %d of %d circuits (first: %s); their kernel timings are left out",
			t.runs-t.replayed, t.runs, t.reasons[0])
	}
	if t.replayed == 0 {
		out.note("unresolved: core.self_s and the dd kernel timings and shares (reported as 0): no replay reproduced its run")
	}
	for _, pkg := range []string{"core", "dd", "cnum", "serve", "runtime"} {
		out.set(pkg+".cpu_share", "ratio", prof.share(pkg))
	}
	out.note("traced %d circuits; replay reproduced %d; profile holds %d samples; cpu shares are flat samples by package",
		t.runs, t.replayed, prof.total)
}

// traced is a sim workload's traced run: an untraced pass over the
// first pool circuits for a third of the time, then the same circuits
// traced (events, spans, CPU profile), each followed by its kernel
// replay.
func (w *simWorkload) traced(cfg config) (*outcome, error) {
	cases := w.prepare(cfg)
	if _, err := w.setup(cfg); err != nil {
		return nil, err
	}
	out := newOutcome()
	budget := time.Duration(cfg.seconds / 3 * float64(time.Second))
	start := time.Now()
	var untraced float64
	p := 0
	for p < len(cases) && (p == 0 || time.Since(start) < budget) {
		r := w.runOne(cfg, cases[p])
		out.attempted++
		if r.err != nil {
			out.failed++
			out.note("circuit %d: %v", p, r.err)
		}
		untraced += r.wall
		p++
	}
	prof := newCPUProfile()
	var tot layerTotals
	var tracedS, parseS float64
	for i, cs := range cases[:p] {
		out.attempted++
		c, ps, err := cs.parse()
		parseS += ps
		var tc *tracedCircuit
		if err == nil {
			tc, err = runTraced(c, w.runOptions(cfg, nil), cfg.workdir, prof)
		}
		if err == nil {
			err = w.check(cs, c, tc.res)
		}
		if err != nil {
			out.failed++
			out.note("traced circuit %d: %v", i, err)
			continue
		}
		tracedS += tc.runS
		tot.add(tc)
	}
	tot.report(out, prof)
	out.set("circuit.parse_s", "s", parseS/float64(p))
	out.set("obs.trace_overhead_ratio", "ratio", ratio(tracedS, untraced))
	fillPerLayer(out)
	return out, nil
}
