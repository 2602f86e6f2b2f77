package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/dd"
)

// EngineStats runs a small workload mix under each strategy family and
// reports the engine's per-cache hit rates and GC behaviour. This is
// the harness view of the engine memory layer: the same counters
// ddsim -stats prints for a single circuit, across the paper's
// benchmark families.
func EngineStats(cfg Config) ([]*Table, error) {
	return engineStats(cfg, []Workload{
		GroverWorkload(14),
		ShorWorkload(15, 7),
		SupremacyWorkload(4, 4, 12, 7),
	})
}

func engineStats(cfg Config, ws []Workload) ([]*Table, error) {
	var arms []arm
	for _, st := range []core.Strategy{core.Sequential{}, core.KOperations{K: 4}, core.MaxSize{SMax: 128}} {
		arms = append(arms, arm{st.Name(), core.Options{Strategy: st}})
	}
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Engine statistics: per-cache hit rates and GC behaviour per workload and strategy\n" +
			"(add-v … mul-mm: cache hits / lookups; identity_skips: identity short-circuits\n" +
			"taken; gc_pause_seconds: summed over all collections; peak_nodes: live V+M nodes)",
		Columns: append(append(append(
			cols(Both, "workload", "strategy", "seconds"),
			cols(TextOnly, "add-v", "add-m", "mul-mv", "mul-mm")...),
			cols(CSVOnly, "addv_lookups", "addv_hits", "addm_lookups", "addm_hits",
				"mulmv_lookups", "mulmv_hits", "mulmm_lookups", "mulmm_hits")...),
			cols(Both, "mul_recursions", "identity_skips", "identity_skip_levels",
				"nodes_created", "nodes_recycled", "gcs", "gc_pause_seconds", "peak_nodes", "fallbacks")...),
	}
	for wi, w := range ws {
		for ai, a := range arms {
			m := ms[wi][ai]
			s := m.Stats
			n := func(v uint64) Cell { return counted(m, float64(v), Count) }
			rate := func(c dd.CacheStats) Cell {
				v := math.NaN() // the strategy never consulted this cache
				if c.Lookups > 0 {
					v = c.HitRate()
				}
				return counted(m, v, Percent)
			}
			t.Rows = append(t.Rows, []Cell{
				label(w.Name), label(a.label), secs(m),
				rate(s.AddV), rate(s.AddM), rate(s.MulMV), rate(s.MulMM),
				n(s.AddV.Lookups), n(s.AddV.Hits), n(s.AddM.Lookups), n(s.AddM.Hits),
				n(s.MulMV.Lookups), n(s.MulMV.Hits), n(s.MulMM.Lookups), n(s.MulMM.Hits),
				n(s.MulRecursions), n(s.IdentitySkipsMV + s.IdentitySkipsMM), n(s.IdentitySkipLevels),
				n(s.NodesCreated), n(s.NodesRecycled), n(s.GCs), counted(m, s.GCPause.Seconds(), Seconds),
				n(uint64(s.PeakVNodes + s.PeakMNodes)), n(uint64(m.Cell.Fallbacks)),
			})
		}
	}
	return []*Table{t}, nil
}
