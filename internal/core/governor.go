package core

import (
	"fmt"

	"repro/internal/dd"
)

// Memory-pressure governor: staged graceful degradation instead of
// budget-cliff aborts.
//
// The engine's pressure signal (dd.SetSoftBudget / dd.Pressure) bands
// live-node occupancy against watermark fractions of a soft budget.
// The governor consults it at flush boundaries — the only points where
// the run is in a consistent, checkpointable state — and walks a
// degradation ladder, taking the cheapest measure that clears the
// pressure before reaching for the next:
//
//	rung 1 (≥ low)       emergency GC + compute-cache purge — exact,
//	                     pointer-preserving.
//	rung 2 (≥ high)      flush the accumulated operation matrix and pin
//	                     the strategy to sequential until occupancy
//	                     falls below the low watermark — exact; the
//	                     pending matrix is applied just like a regular
//	                     flush, only earlier.
//	rung 3 (≥ high)      a sifting pass to shrink the state DD itself —
//	                     exact up to weight re-canonicalisation (the
//	                     same contract as Options.Reorder "sifting").
//	       (critical)    before degrading further, Options.GrowBudget
//	                     is consulted for more headroom (the batch
//	                     ledger returns finished siblings' unused
//	                     shares).
//	rung 4 (critical)    opt-in (Degrade "approx"): fidelity-bounded
//	                     state approximation via dd.Engine.Approximate;
//	                     the bound multiplies into Result.FidelityBound.
//	rung 5 (critical)    checkpoint-then-park: the run returns a
//	                     *RunError of kind FailurePressure (retryable —
//	                     the abort-checkpoint path in RunContext writes
//	                     the park checkpoint) instead of tripping the
//	                     hard budget mid-kernel.
//
// Every action is journaled into Result.Degradations and emitted as an
// obs KindPressure event with dd_pressure_* metrics. Under chaos
// injection (dd.InjectPressure) the level never subsides, so a single
// governor look deterministically walks every rung the injected level
// unlocks — that is how CI forces each rung.

// Degrade modes (Options.Degrade).
const (
	degradeOff    = "off"
	degradeLadder = "ladder"
	degradeApprox = "approx"
)

// Degradation is one journaled action of the governor's ladder.
type Degradation struct {
	// GateIndex is the gate index through which the state was applied
	// when the action was taken.
	GateIndex int `json:"gate"`
	// Rung is the ladder rung (1–5; 0 for a budget grow, which is a
	// headroom acquisition rather than a degradation).
	Rung int `json:"rung"`
	// Action names the measure: "gc", "flush", "sift", "grow",
	// "approx", "park".
	Action string `json:"action"`
	// Level is the pressure band that triggered the action ("low",
	// "high", "critical").
	Level string `json:"level"`
	// LiveBefore/LiveAfter are the combined live-node counts around
	// the action.
	LiveBefore int `json:"live_before"`
	LiveAfter  int `json:"live_after"`
	// Fidelity is the fidelity bound of an approximation rung (0 for
	// exact actions).
	Fidelity float64 `json:"fidelity,omitempty"`
}

// governorArmed reports whether the options (after normalizeGovernor)
// call for a governor.
func governorArmed(opt Options) bool {
	return opt.Degrade == degradeLadder || opt.Degrade == degradeApprox
}

// normalizeGovernor validates the governor knobs and resolves their
// defaults in place: SoftBudget implies Degrade "ladder"; Degrade
// without SoftBudget governs against MaxNodes; ApproxNodes defaults to
// SoftBudget/4 floored at the qubit count. Violations return a typed
// *ConfigError naming the offending option.
func normalizeGovernor(opt *Options, nqubits int) error {
	switch opt.Degrade {
	case "", degradeOff, degradeLadder, degradeApprox:
	default:
		return &ConfigError{Option: "Degrade",
			Msg: fmt.Sprintf("unknown mode %q (want off, ladder or approx)", opt.Degrade)}
	}
	if !opt.PressureWatermarks.Valid() {
		w := opt.PressureWatermarks
		return &ConfigError{Option: "PressureWatermarks",
			Msg: fmt.Sprintf("watermarks must be strictly increasing within (0,1], got %g/%g/%g", w.Low, w.High, w.Critical)}
	}
	if opt.SoftBudget < 0 {
		return &ConfigError{Option: "SoftBudget",
			Msg: fmt.Sprintf("must be >= 0, got %d", opt.SoftBudget)}
	}
	if opt.SoftBudget > 0 && opt.MaxNodes > 0 && opt.SoftBudget > opt.MaxNodes {
		return &ConfigError{Option: "SoftBudget",
			Msg: fmt.Sprintf("soft budget %d exceeds the hard budget MaxNodes=%d", opt.SoftBudget, opt.MaxNodes)}
	}
	mode := opt.Degrade
	if mode == "" && opt.SoftBudget > 0 {
		mode = degradeLadder
	}
	if mode == "" || mode == degradeOff {
		if opt.ApproxNodes != 0 {
			return &ConfigError{Option: "ApproxNodes",
				Msg: `only meaningful with Degrade "approx"`}
		}
		opt.Degrade = mode
		return nil
	}
	if opt.SoftBudget == 0 {
		if opt.MaxNodes == 0 {
			return &ConfigError{Option: "Degrade",
				Msg: fmt.Sprintf("%q needs a budget to govern against (set SoftBudget or MaxNodes)", mode)}
		}
		opt.SoftBudget = opt.MaxNodes
	}
	switch {
	case mode != degradeApprox && opt.ApproxNodes != 0:
		return &ConfigError{Option: "ApproxNodes",
			Msg: `only meaningful with Degrade "approx"`}
	case mode == degradeApprox && opt.ApproxNodes == 0:
		opt.ApproxNodes = opt.SoftBudget / 4
		if opt.ApproxNodes < nqubits {
			opt.ApproxNodes = nqubits
		}
	case mode == degradeApprox && opt.ApproxNodes < nqubits:
		// Mirrors the dd.Engine.Approximate precondition: a product
		// state already needs one node per qubit.
		return &ConfigError{Option: "ApproxNodes",
			Msg: fmt.Sprintf("approximation floor %d below qubit count %d (a state DD cannot be smaller)", opt.ApproxNodes, nqubits)}
	}
	opt.Degrade = mode
	return nil
}

// governor holds the ladder state of one run.
type governor struct {
	r    *runner
	mode string // degradeLadder or degradeApprox
	// soft is the current soft budget (grows via Options.GrowBudget).
	soft int
	// approxNodes is rung 4's state-size target.
	approxNodes int
	// pinned forces ShouldApply while set: the strategy is held at
	// sequential until occupancy falls below the low watermark.
	pinned bool
	// journal is the run's Result.Degradations.
	journal []Degradation
	// fidelity is the cumulative fidelity bound (1 until rung 4 cuts).
	fidelity float64
	// lastGCs is the engine's GC count at the last governor look;
	// rung 1 only collects when nothing else collected since.
	lastGCs uint64
	// lastSiftGate/lastApproxGate dedupe rungs 3 and 4 to one attempt
	// per applied-gate position.
	lastSiftGate   int
	lastApproxGate int
}

func newGovernor(r *runner) *governor {
	return &governor{
		r:              r,
		mode:           r.opt.Degrade,
		soft:           r.opt.SoftBudget,
		approxNodes:    r.opt.ApproxNodes,
		fidelity:       1,
		lastSiftGate:   -1,
		lastApproxGate: -1,
	}
}

// maybeGovern consults the pressure signal at a flush boundary and, if
// a watermark is crossed, walks the ladder. The returned error is a
// *RunError only for a rung-5 park or a genuine abort inside a rung.
func (r *runner) maybeGovern() error {
	g := r.gov
	if g == nil {
		return nil
	}
	p := r.eng.Pressure()
	if p.Level == dd.PressureNone {
		// Recovery: below the low watermark the pin is lifted and the
		// configured strategy resumes combining.
		g.pinned = false
		g.lastGCs = r.eng.Stats().GCs
		return nil
	}
	return g.act(p)
}

// govPinned reports whether the governor is holding the strategy at
// sequential (rung 2's sticky half).
func (r *runner) govPinned() bool { return r.gov != nil && r.gov.pinned }

// act walks the ladder for one boundary. Each rung re-reads the
// pressure afterwards and stops as soon as the level has dropped below
// the next rung's threshold. Under chaos injection the level never
// drops, so one call deterministically reaches every rung the injected
// level unlocks.
func (g *governor) act(p dd.PressureInfo) error {
	r := g.r

	// Rung 1 (≥ low): emergency collection + compute-cache purge —
	// skipped when a collection already ran since the last look (then
	// the garbage is already gone and the live set is what remains).
	if gcs := r.eng.Stats().GCs; gcs == g.lastGCs {
		before, lvl := p.Live, p.Level
		r.collect()
		p = r.eng.Pressure()
		g.note(1, "gc", lvl, before, p.Live, 0)
	}
	g.lastGCs = r.eng.Stats().GCs
	if p.Level < dd.PressureHigh {
		return nil
	}

	// Rung 2 (≥ high): stop accumulating. The pending operation matrix
	// is flushed — applied to the state exactly as a regular flush
	// would, only earlier — and the strategy is pinned to sequential
	// until occupancy falls below the low watermark.
	if r.accValid || !g.pinned {
		before, lvl := p.Live, p.Level
		if err := r.flush(r.next); err != nil {
			return err
		}
		g.pinned = true
		r.collect()
		g.lastGCs = r.eng.Stats().GCs
		p = r.eng.Pressure()
		g.note(2, "flush", lvl, before, p.Live, 0)
		if p.Level < dd.PressureHigh {
			return nil
		}
	}

	// Rung 3 (≥ high persists): one sifting pass to shrink the state
	// DD itself. Skipped while a combined block matrix is alive (it
	// would go stale against the new order), when sifting's own
	// intermediates would not fit the hard budget, and re-attempted at
	// most once per gate position. Unlike maybeReorder it is not gated
	// on Options.Reorder: under pressure the governor may shrink the
	// state even in fixed-order runs.
	if g.lastSiftGate != r.applied && len(r.blockMats) == 0 && r.siftHeadroom() {
		g.lastSiftGate = r.applied
		before, lvl := p.Live, p.Level
		if err := r.sift(); err != nil {
			return err
		}
		p = r.eng.Pressure()
		g.note(3, "sift", lvl, before, p.Live, 0)
	}
	if p.Level < dd.PressureCritical {
		return nil
	}

	// Critical: ask for more headroom before degrading further. In a
	// batch, finished siblings' unused budget shares come back here.
	if r.opt.GrowBudget != nil {
		if nb := r.opt.GrowBudget(g.soft); nb > g.soft {
			before := p.Live
			g.grow(nb)
			p = r.eng.Pressure()
			g.note(0, "grow", dd.PressureCritical, before, p.Live, 0)
			if p.Level < dd.PressureCritical {
				return nil
			}
		}
	}

	// Rung 4 (critical, opt-in): fidelity-bounded approximation of the
	// state DD down to approxNodes.
	if g.mode == degradeApprox && g.lastApproxGate != r.applied {
		g.lastApproxGate = r.applied
		cut, err := g.approximate(&p)
		if err != nil {
			return err
		}
		if cut && p.Level < dd.PressureCritical {
			return nil
		}
	}
	if p.Level < dd.PressureCritical {
		return nil
	}

	// Rung 5: checkpoint-then-park. The run returns a typed pressure
	// failure from a consistent boundary; RunContext's abort-checkpoint
	// path writes the park checkpoint, and Retryable reports the error
	// as retryable so schedulers re-admit the job under a quieter
	// budget instead of losing it.
	g.note(5, "park", dd.PressureCritical, p.Live, p.Live, 0)
	return &RunError{Kind: FailurePressure, GateIndex: r.next, Err: ErrPressure}
}

// grow raises the soft budget (and the hard budget with it when one is
// armed — the ledger's grant is real headroom, not a reinterpretation
// of the existing cap).
func (g *governor) grow(nb int) {
	r := g.r
	g.soft = nb
	if r.opt.MaxNodes > 0 && nb > r.opt.MaxNodes {
		r.opt.MaxNodes = nb
		r.eng.SetBudget(nb)
	}
	r.eng.SetSoftBudget(nb, r.opt.PressureWatermarks)
}

// approximate runs rung 4: cut the state DD down to g.approxNodes,
// multiplying the cut's fidelity into the cumulative bound. Reports
// whether a cut happened; a state already at or under the target, or
// one the engine refuses to cut (it would collapse), falls through to
// the next rung without an error.
func (g *governor) approximate(p *dd.PressureInfo) (bool, error) {
	r := g.r
	if r.stateSz < 0 {
		if err := r.guard(r.next, func() { r.stateSz = r.eng.SizeV(r.v) }); err != nil {
			return false, err
		}
	}
	if r.stateSz <= g.approxNodes {
		return false, nil // the state is not what fills the budget
	}
	before := p.Live
	var (
		ar   dd.ApproxResult
		aerr error
	)
	if err := r.guard(r.next, func() {
		ar, aerr = r.eng.Approximate(r.v, g.approxNodes)
	}); err != nil {
		return false, err
	}
	if aerr != nil {
		// Unusable cut (e.g. the state would collapse to zero): stay
		// exact and let the next rung decide.
		return false, nil
	}
	r.v = ar.State
	r.stateSz = -1
	g.fidelity *= ar.Fidelity
	r.collect()
	*p = r.eng.Pressure()
	g.note(4, "approx", dd.PressureCritical, before, p.Live, ar.Fidelity)
	return true, nil
}

// note journals one ladder action and forwards it to the event stream
// and the caller's pressure hook.
func (g *governor) note(rung int, action string, level dd.PressureLevel, before, after int, fid float64) {
	d := Degradation{
		GateIndex:  g.r.applied,
		Rung:       rung,
		Action:     action,
		Level:      level.String(),
		LiveBefore: before,
		LiveAfter:  after,
		Fidelity:   fid,
	}
	g.journal = append(g.journal, d)
	if g.r.obs != nil {
		g.r.obs.pressureEv(g.r.next, d)
	}
	if g.r.opt.OnPressure != nil {
		g.r.opt.OnPressure(d)
	}
}
