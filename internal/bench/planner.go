package bench

import (
	"math"
	"strconv"

	"repro/internal/core"
)

// The planner experiment asks whether the cost-model-driven planner
// (core.Planner) matches the best fixed strategy per circuit family
// without being told which one that is. Every workload of the Fig. 8/9
// mix runs under every fixed strategy and under the planner with
// default knobs; the planner's time is compared per workload against
// the best and worst fixed cell.

// PlannerSweep measures every Fig. 8/9 workload under every fixed
// strategy and under the planner.
func PlannerSweep(cfg Config) ([]*Table, error) {
	return plannerSweep(cfg, FigWorkloads(cfg.Full))
}

// plannerSweep interleaves repetitions rep-major (every cell once, then
// every cell again) instead of cell-major (all reps of one cell back to
// back). The verdict is a ratio between cells, and machine load drifts
// on the scale of whole cells: run cell-major, a slow epoch lands
// entirely inside whichever cell owns that wall-clock span and its
// minimum is poisoned across all its reps at once. Interleaved, a slow
// epoch taxes one rep of many cells, and every cell keeps reps from the
// quiet epochs — the per-cell minima are taken under matched
// conditions. Within a rep each workload's planner cell runs first:
// combine-all (always in the fixed set, frequently a timeout) retires
// with a multi-GB heap whose allocator residue slows whatever follows,
// and the comparison target must not systematically inherit it. That
// order only holds serially, so the sweep ignores cfg.Parallel. Cells
// that die (timeout/oom) are not retried on later reps — re-running
// them would re-pay the full budget per rep for a cell whose verdict
// cannot change.
func plannerSweep(cfg Config, ws []Workload) ([]*Table, error) {
	if len(ws) > 0 {
		// One small untimed run before any timed cell: process warm-up
		// (code paging, the heap's first growth) must not be billed to
		// whichever cell happens to run first.
		_ = GroverWorkload(10).Run(core.Options{Strategy: core.Sequential{}})
	}
	arms := []arm{
		{"planner", core.Options{Strategy: &core.Planner{}}},
		{"sequential", core.Options{Strategy: core.Sequential{}}},
		{"k-operations (k=4)", core.Options{Strategy: core.KOperations{K: 4}}},
		{"max-size (s=128)", core.Options{Strategy: core.MaxSize{SMax: 128}}},
		{"adaptive (r=1)", core.Options{Strategy: core.Adaptive{Ratio: 1}}},
		{"combine-all", core.Options{Strategy: core.CombineAll{}}},
	}
	oneRep := cfg
	oneRep.Reps, oneRep.Parallel = 1, 1
	best := make([]Measurement, len(ws)*len(arms))
	for rep := 0; rep < cfg.reps(); rep++ {
		ms, err := runCells(oneRep, len(best), func(i int, cfg Config) Measurement {
			if rep > 0 && best[i].Mark() != "" {
				return best[i]
			}
			return timeCell(ws[i/len(arms)], arms[i%len(arms)], cfg)
		})
		if err != nil {
			return nil, err
		}
		for i, m := range ms {
			if rep == 0 || (m.Mark() == "" && m.Seconds < best[i].Seconds) {
				best[i] = m
			}
		}
	}

	cells := &Table{
		Title: "Adaptive strategy planner vs. every fixed strategy (fresh engine per cell;\n" +
			"planner knobs at defaults — it is told nothing about the circuit family)",
		Columns: cols(Both, "workload", "strategy", "planner", "seconds", "mark"),
	}
	verdict := &Table{
		Title: "Per-benchmark verdict (planner/best <= 1.10 everywhere and worst/planner >= 2\n" +
			"somewhere is the planner pulling its weight)",
		Columns: cols(TextOnly, "workload", "planner", "best_fixed", "t_best", "worst_fixed", "planner/best", "worst/planner"),
	}
	for wi, w := range ws {
		row := best[wi*len(arms) : (wi+1)*len(arms)]
		cell := func(ai int) []Cell {
			m := row[ai]
			return []Cell{label(w.Name), label(arms[ai].label), label(strconv.FormatBool(ai == 0)),
				{V: m.Seconds, Unit: Seconds}, label(m.Mark())}
		}
		// A fixed cell that did not finish scores the larger of its
		// elapsed time and the budget — a lower bound on its true cost —
		// and never wins "best".
		bestS, worstS := math.Inf(1), 0.0
		var bestName, worstName string
		for ai := 1; ai < len(arms); ai++ {
			cells.Rows = append(cells.Rows, cell(ai))
			m, s := row[ai], row[ai].Seconds
			if m.Mark() != "" {
				s = math.Max(s, cfg.Budget.Seconds())
			} else if s < bestS {
				bestS, bestName = s, arms[ai].label
			}
			if s > worstS {
				worstS, worstName = s, arms[ai].label
			}
		}
		cells.Rows = append(cells.Rows, cell(0))
		p := row[0]
		pS := p.Seconds
		if p.Mark() != "" {
			pS = math.Inf(1)
		}
		verdict.Rows = append(verdict.Rows, []Cell{
			label(w.Name), secs(p), label(bestName), {V: bestS, Unit: Seconds}, label(worstName),
			{V: pS / bestS, Unit: Ratio}, {V: worstS / pS, Unit: Ratio},
		})
	}
	return []*Table{cells, verdict}, nil
}
