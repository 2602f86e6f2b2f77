package bench

import (
	"math"

	"repro/internal/core"
)

// The identity experiment measures the identity-aware multiplication
// kernels directly: every workload×strategy cell runs twice — once
// with the identity short-circuits disabled
// (core.Options.DisableIdentitySkip) and once with them on — and
// reports the MulRecursions and wall-time deltas. The paper's
// combination strategies build accumulated operation matrices that are
// mostly identity structure, so the interesting comparison is
// sequential (where only gate padding is identity) against
// k-operations / max-size / DD-repeating (where the accumulated and
// repeated matrices are).

// IdentitySweep runs the before/after comparison over the Grover and
// QFT workloads (two of the paper's benchmark families with very
// different DD profiles: Grover's combined operator is dense below the
// oracle, QFT's controlled phases are nearly diagonal).
func IdentitySweep(cfg Config) ([]*Table, error) {
	return identitySweep(cfg, []Workload{GroverWorkload(14), QFTWorkload(16)})
}

func identitySweep(cfg Config, ws []Workload) ([]*Table, error) {
	strategies := []arm{
		{"sequential", core.Options{Strategy: core.Sequential{}}},
		{"k-operations (k=4)", core.Options{Strategy: core.KOperations{K: 4}}},
		{"max-size (s=128)", core.Options{Strategy: core.MaxSize{SMax: 128}}},
		{"DD-repeating", core.Options{Strategy: core.Sequential{}, UseBlocks: true}},
	}
	var arms []arm // each strategy with the skips off, then on
	for _, a := range strategies {
		off := a
		off.opt.DisableIdentitySkip = true
		arms = append(arms, off, a)
	}
	ms, err := measureGrid(cfg, ws, arms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Identity-aware kernels: multiplication recursions and wall time with the\n" +
			"identity short-circuits off vs. on (same circuits, same strategies; results\n" +
			"are pointer-identical either way — only the work to reach them changes)",
		Columns: cols(Both, "workload", "strategy", "seconds_off", "seconds_on", "mark_off", "mark_on",
			"mul_recursions_off", "mul_recursions_on", "recursion_ratio",
			"identity_skips", "identity_skip_levels"),
	}
	for wi, w := range ws {
		for si, a := range strategies {
			off, on := ms[wi][2*si], ms[wi][2*si+1]
			recOff, recOn := off.Stats.MulRecursions, on.Stats.MulRecursions
			ratio := math.NaN()
			if off.Mark() == "" && on.Mark() == "" {
				ratio = 1
				if recOff > 0 {
					ratio = float64(recOn) / float64(recOff)
				}
			}
			t.Rows = append(t.Rows, []Cell{
				label(w.Name), label(a.label),
				{V: off.Seconds, Unit: Seconds}, {V: on.Seconds, Unit: Seconds},
				label(off.Mark()), label(on.Mark()),
				counted(off, float64(recOff), Count), counted(on, float64(recOn), Count),
				{V: ratio, Unit: Ratio},
				counted(on, float64(on.Stats.IdentitySkipsMV+on.Stats.IdentitySkipsMM), Count),
				counted(on, float64(on.Stats.IdentitySkipLevels), Count),
			})
		}
	}
	return []*Table{t}, nil
}
