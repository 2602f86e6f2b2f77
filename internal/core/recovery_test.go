package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/supremacy"
	"repro/internal/verify"
)

// TestRepairKeepsEveryCounter pins Result.Stats to the result engine's
// own counters, field for field: on a governed run (whose pressure
// probes only the engine counts) and on a chaos-repaired run (whose
// engine was swapped mid-run and must continue the retired engine's
// counters).
func TestRepairKeepsEveryCounter(t *testing.T) {
	c := supremacy.Circuit(3, 3, 10, 1)
	res, err := Run(c, Options{SoftBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PressureProbesLow+res.Stats.PressureProbesHigh+res.Stats.PressureProbesCritical == 0 {
		t.Fatalf("governed run recorded no pressure probes: %+v", res.Stats)
	}
	if got := res.Engine.Stats(); !reflect.DeepEqual(res.Stats, got) {
		t.Fatalf("governed run: Result.Stats\n%+v\nengine\n%+v", res.Stats, got)
	}

	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(4242))
	for after := uint64(5); after < 150; after += 11 {
		c := verify.RandomCircuit(rng, 4, 40)
		eng := dd.New()
		if !eng.InjectBitFlipAfter(after, dd.FaultWeightFlip) {
			t.Skip("fault injection did not arm (chaos disabled)")
		}
		res, err := Run(c, Options{Engine: eng, VerifyEvery: 1})
		if err != nil || res.Repairs == 0 {
			continue
		}
		if res.Engine == eng {
			t.Fatal("repaired run still points at the retired engine")
		}
		if got := res.Engine.Stats(); !reflect.DeepEqual(res.Stats, got) {
			t.Fatalf("repaired run: Result.Stats\n%+v\nengine\n%+v", res.Stats, got)
		}
		if res.Stats.FaultsInjected != 1 {
			t.Fatalf("faults injected %d, want the retired engine's 1", res.Stats.FaultsInjected)
		}
		return
	}
	t.Fatal("no injection point produced an in-run repair")
}

// blockFallbacks runs c with blocks on and classifies the run's
// fallback events by the block path that raised them: a budget abort
// while combining the block body, or one while applying a repeat.
func blockFallbacks(t *testing.T, c *circuit.Circuit, opt Options) (res *Result, err error, combine, repeat int) {
	t.Helper()
	b := c.Blocks[0]
	end := b.Start + b.Repeat*(b.End-b.Start)
	ring := obs.NewRing(1 << 16)
	opt.UseBlocks = true
	opt.EventSink = ring
	res, err = Run(c, opt)
	for _, e := range ring.Events() {
		if e.Kind != obs.KindFallback {
			continue
		}
		switch {
		case e.Gate == b.Start && e.Combined == end-b.Start:
			combine++
		case e.Gate > b.Start && e.Gate <= end:
			repeat++
		}
	}
	return res, err, combine, repeat
}

// checkRecovered asserts that a recovered run reached the reference
// amplitudes and left its engine Audit-clean.
func checkRecovered(t *testing.T, res *Result, c *circuit.Circuit, want []complex128) {
	t.Helper()
	if res.GatesApplied != len(c.Gates) {
		t.Fatalf("applied %d of %d gates", res.GatesApplied, len(c.Gates))
	}
	vectorsMatch(t, res.State.ToVector(), want)
	if err := res.Engine.Audit(); err != nil {
		t.Fatalf("engine audit: %v", err)
	}
	if err := res.Engine.AuditV(res.State); err != nil {
		t.Fatalf("state audit: %v", err)
	}
}

// TestBudgetFallbackInBlockCombine: a node budget too small for the
// combined grover iteration trips while the block body is being
// combined; the block's gates replay sequentially and the run ends on
// the unbudgeted amplitudes.
func TestBudgetFallbackInBlockCombine(t *testing.T) {
	c := grover.Circuit(10, 3, grover.Iterations(10))
	ref, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.State.ToVector()
	for _, st := range []Strategy{Sequential{}, CombineAll{}} {
		res, err, combine, _ := blockFallbacks(t, c, Options{Strategy: st, MaxNodes: 150})
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if combine == 0 {
			t.Fatalf("%s: no fallback from the block combine (%d fallbacks)", st.Name(), res.Fallbacks)
		}
		checkRecovered(t, res, c, want)
	}
}

// TestBudgetFallbackInBlockRepeat: budgets that admit the combined
// grover iteration but not every product of it with the state trip
// while a repeat is applied; the block's remaining gates replay
// sequentially. The sweep covers the narrow band of such budgets.
func TestBudgetFallbackInBlockRepeat(t *testing.T) {
	c := grover.Circuit(10, 3, grover.Iterations(10))
	ref, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.State.ToVector()
	for _, st := range []Strategy{Sequential{}, CombineAll{}} {
		hits := 0
		for maxNodes := 500; maxNodes <= 650; maxNodes += 10 {
			res, err, _, repeat := blockFallbacks(t, c, Options{Strategy: st, MaxNodes: maxNodes})
			if err != nil {
				t.Fatalf("%s MaxNodes=%d: %v", st.Name(), maxNodes, err)
			}
			hits += repeat
			checkRecovered(t, res, c, want)
		}
		if hits == 0 {
			t.Fatalf("%s: no budget in the sweep tripped while applying a repeat", st.Name())
		}
	}
}

// TestRepairInsideBlockRepeat: a bit flip detected while a block's
// repeats are being applied swaps the engine inside the repeat loop;
// the combined block matrix dies with the retired engine, the block's
// remaining gates run gate-at-a-time, and the run ends on the dense
// oracle's state. The verification cadence counts r.next, which a
// block advances only once it is done, so the in-loop pass fires on
// the first repeat of a block that directly follows another: the
// circuit has two back-to-back blocks.
func TestRepairInsideBlockRepeat(t *testing.T) {
	t.Setenv("DD_CHAOS", "1")
	rng := rand.New(rand.NewSource(5))
	bodyA := verify.RandomCircuit(rng, 5, 10)
	bodyB := verify.RandomCircuit(rng, 5, 10)
	c := circuit.New(5)
	for q := 0; q < 5; q++ {
		c.H(q)
	}
	c.Repeat("a", 3, func(c *circuit.Circuit) { c.Gates = append(c.Gates, bodyA.Gates...) })
	c.Repeat("b", 4, func(c *circuit.Circuit) { c.Gates = append(c.Gates, bodyB.Gates...) })
	c.H(0)
	b := c.Blocks[1]
	end := b.Start + b.Repeat*(b.End-b.Start)
	oracle := dense.Simulate(c)
	inLoop := 0
	for after := uint64(1); after < 300 && inLoop < 5; after += 2 {
		eng := dd.New()
		if !eng.InjectBitFlipAfter(after, dd.FaultWeightFlip) {
			t.Skip("fault injection did not arm (chaos disabled)")
		}
		ring := obs.NewRing(1 << 14)
		res, err := Run(c, Options{Engine: eng, UseBlocks: true, VerifyEvery: 1, EventSink: ring})
		if err != nil || res.Repairs == 0 {
			continue
		}
		repairedAt, handedBack := -1, false
		for _, e := range ring.Events() {
			switch {
			case e.Kind == obs.KindRepair && e.Gate > b.Start && e.Gate < end && repairedAt < 0:
				repairedAt = e.Gate
			case e.Kind == obs.KindStep && repairedAt >= 0 && !e.FromBlock && e.Gate <= end:
				handedBack = true
			}
		}
		if repairedAt < 0 {
			continue
		}
		if !handedBack {
			t.Fatalf("after %d: repair at gate %d inside block %q, but no gate-at-a-time step followed", after, repairedAt, b.Name)
		}
		inLoop++
		if f := verify.Fidelity(res.State.ToVector(), oracle); f < 1-verify.FidelityTol {
			t.Fatalf("after %d: fidelity %v against the dense oracle", after, f)
		}
		if err := res.Engine.Audit(); err != nil {
			t.Fatalf("after %d: engine audit: %v", after, err)
		}
		if err := res.Engine.AuditV(res.State); err != nil {
			t.Fatalf("after %d: state audit: %v", after, err)
		}
	}
	if inLoop == 0 {
		t.Fatal("no injection point produced a repair inside the block's repeat loop")
	}
}
