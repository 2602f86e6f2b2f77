package bench

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/shor"
)

// The reorder experiment measures what variable order is worth: every
// workload runs under fixed identity order ("off"), the static
// interaction-graph order derived before the run ("static"), and
// dynamic sifting ("sifting"), and reports the peak state-DD size along
// the run, the final size, wall time, and the swap work the dynamic
// mode spent. The cross-register entangler is the canonical
// order-sensitive workload (identity order pays 2^(n/2) nodes for a
// state an interleaved order represents in O(n)); the paper's benchmark
// families show how much of that sensitivity real circuits retain.

// crossEntangler builds the cross-register Bell pairer: H(i) then
// CX(i, i+n/2) for each i < n/2.
func crossEntangler(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.Name = fmt.Sprintf("cross_%d", n)
	half := n / 2
	for i := 0; i < half; i++ {
		c.H(i)
		c.CX(i, i+half)
	}
	return c
}

// ReorderSweep runs every workload under each reordering mode.
func ReorderSweep(cfg Config) ([]*Table, error) {
	groverN, qftN := 12, 14
	if cfg.Full {
		groverN, qftN = 14, 16
	}
	shorC, _, err := shor.ControlledUaCircuit(15, 7)
	if err != nil {
		return nil, fmt.Errorf("bench: reorder: %w", err)
	}
	shorC.Name = "shor_15_7_ua"
	return reorderSweep(cfg, []Workload{
		GroverWorkload(groverN),
		QFTWorkload(qftN),
		circuitWorkload(shorC),
		SupremacyWorkload(4, 4, 12, 7),
		circuitWorkload(crossEntangler(24)),
	})
}

// reorderSweep lays the sweep out one block per workload with the off
// row first, so the text-only reduction column reads as "peak relative
// to fixed order".
func reorderSweep(cfg Config, ws []Workload) ([]*Table, error) {
	var arms []arm
	for _, mode := range []string{"off", "static", "sifting"} {
		arms = append(arms, arm{mode, core.Options{Reorder: mode}})
	}
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Variable reordering: peak and final state-DD sizes under fixed order\n" +
			"(off), the static interaction-graph order (static), and dynamic sifting\n" +
			"(sifting); reduction is peak(off)/peak(mode)",
		Columns: append(append(
			cols(Both, "workload", "mode", "seconds", "mark", "peak_nodes", "final_nodes"),
			Column{Name: "reduction", In: TextOnly}),
			cols(Both, "swaps", "sift_passes")...),
	}
	for wi, w := range ws {
		off := ms[wi][0]
		for ai, a := range arms {
			m := ms[wi][ai]
			red := math.NaN()
			if ai > 0 && off.Mark() == "" && m.Mark() == "" && m.Cell.PeakStateNodes > 0 {
				red = float64(off.Cell.PeakStateNodes) / float64(m.Cell.PeakStateNodes)
			}
			t.Rows = append(t.Rows, []Cell{
				label(w.Name), label(a.label), {V: m.Seconds, Unit: Seconds}, label(m.Mark()),
				counted(m, float64(m.Cell.PeakStateNodes), Count), counted(m, float64(m.Cell.StateNodes), Count),
				{V: red, Unit: Ratio},
				counted(m, float64(m.Stats.ReorderSwaps), Count), counted(m, float64(m.Stats.SiftPasses), Count),
			})
		}
	}
	return []*Table{t}, nil
}
