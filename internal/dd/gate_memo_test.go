package dd

import (
	"bytes"
	"math/rand"
	"testing"
)

// buildGateDirect builds a gate through the memo's miss path only: the
// same validation GateDD runs, then the level sweep, never the memo.
func buildGateDirect(e *Engine, u [2][2]complex128, n, target int, controls []Control) MEdge {
	e.loadControls(n, target, controls)
	return e.buildGate(u, n, target)
}

// randGate draws a gate on n qubits with up to three mixed-polarity
// controls.
func randGate(rng *rand.Rand, n int) (u [2][2]complex128, target int, controls []Control) {
	target = rng.Intn(n)
	for _, q := range rng.Perm(n)[:rng.Intn(min(n, 4))] {
		if q != target {
			controls = append(controls, Control{Qubit: q, Negative: rng.Intn(2) == 0})
		}
	}
	return randUnitary(rng), target, controls
}

func shuffled(rng *rand.Rand, controls []Control) []Control {
	out := append([]Control(nil), controls...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestGateMemoPointerIdentity checks that a memo hit — with the controls
// given in another order — returns the edge the direct builder reaches,
// pointer- and bit-identical, and creates no nodes. Unrelated gates
// between the calls make the direct-mapped slots collide.
func TestGateMemoPointerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	e := New()
	hits := 0
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(24)
		u, target, controls := randGate(rng, n)
		first := e.GateDD(u, n, target, controls)
		for j := rng.Intn(3); j > 0; j-- {
			ou, ot, oc := randGate(rng, n)
			e.GateDD(ou, n, ot, oc)
		}
		ref := buildGateDirect(e, u, n, target, controls)
		created, before := e.Stats().NodesCreated, e.Stats().Gate.Hits
		got := e.GateDD(u, n, target, shuffled(rng, controls))
		s := e.Stats()
		if s.NodesCreated != created {
			t.Fatalf("gate %d: repeated GateDD created %d nodes", i, s.NodesCreated-created)
		}
		if got != ref || got != first {
			t.Fatalf("gate %d (n=%d target=%d controls=%v): memo edge %v, builder %v, first %v",
				i, n, target, controls, got, ref, first)
		}
		hits += int(s.Gate.Hits - before)
	}
	if hits == 0 {
		t.Fatal("no repeated gate was answered by the memo")
	}

	// Near-miss keys: X and Z (which differ only in real parts), S and S†
	// (only in imaginary parts) on every (n, target, control set,
	// polarity) of up to four qubits, each requested twice in a shuffled
	// schedule, so any key field the memo ignored would return another
	// gate's edge.
	type key struct {
		u         [2][2]complex128
		n, target int
		controls  []Control
	}
	var keys []key
	for n := 1; n <= 4; n++ {
		for target := 0; target < n; target++ {
			for pattern := 0; pattern < 1<<(2*n); pattern++ {
				var controls []Control
				ok := true
				for q := 0; q < n && ok; q++ {
					switch pattern >> (2 * q) & 3 {
					case 1:
						controls = append(controls, Pos(q))
					case 2:
						controls = append(controls, Neg(q))
					case 3:
						ok = false
					}
				}
				if ok && pattern>>(2*target)&3 == 0 {
					for _, u := range [][2][2]complex128{gX, {{1, 0}, {0, -1}}, {{1, 0}, {0, 1i}}, {{1, 0}, {0, -1i}}} {
						keys = append(keys, key{u, n, target, controls})
					}
				}
			}
		}
	}
	keys = append(keys, keys...)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		got := e.GateDD(k.u, k.n, k.target, shuffled(rng, k.controls))
		if ref := buildGateDirect(e, k.u, k.n, k.target, k.controls); got != ref {
			t.Fatalf("%v on n=%d target=%d controls=%v: memo edge %v, builder %v", k.u, k.n, k.target, k.controls, got, ref)
		}
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestGateMemoExpiry builds a gate, drops it with an unrooted collection,
// lets other gates recycle its nodes, and checks the next request is a
// miss that rebuilds the right matrix on an Audit-clean engine.
func TestGateMemoExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	e := New()
	controls := []Control{Pos(0), Neg(4)}
	g := e.GateDD(gH, 6, 2, controls)
	want := g.ToMatrix()
	e.GarbageCollect(nil, nil)
	if e.Stats().NodesRecycled == 0 {
		t.Fatal("unrooted collection freed nothing")
	}
	for i := 0; i < 20; i++ {
		u, target, ctl := randGate(rng, 6)
		e.GateDD(u, 6, target, ctl)
	}
	hits := e.Stats().Gate.Hits
	g = e.GateDD(gH, 6, 2, controls)
	if e.Stats().Gate.Hits != hits {
		t.Fatal("memo answered a gate dropped by garbage collection")
	}
	approxMat(t, g.ToMatrix(), want, "gate rebuilt after GC")
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := e.AuditM(g); err != nil {
		t.Fatal(err)
	}
}

// TestGateMemoAcrossReorder checks that a memo entry stays correct while
// sifting and explicit level swaps rebuild other diagrams: the key holds
// level indices, and swaps create nodes but free none.
func TestGateMemoAcrossReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	e := New()
	const n = 8
	controls := []Control{Neg(1), Pos(6)}
	g := e.GateDD(gH, n, 3, controls)
	want := g.ToMatrix()
	v := e.FromVector(randState(rng, n))
	order := IdentityOrder(n)
	v, _ = e.SiftV(v, order, 0)
	for l := 0; l < n-1; l++ {
		v = e.SwapAdjacentV(v, l)
		e.SwapAdjacentM(g, l)
	}
	hits := e.Stats().Gate.Hits
	got := e.GateDD(gH, n, 3, controls)
	if e.Stats().Gate.Hits != hits+1 {
		t.Fatal("memo entry did not survive reordering")
	}
	if ref := buildGateDirect(e, gH, n, 3, controls); got != ref || got != g {
		t.Fatalf("memo edge %v after reordering, builder %v, first %v", got, ref, g)
	}
	approxMat(t, got.ToMatrix(), want, "memoised gate after reordering")
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestGateMemoBypassWide checks that registers wider than the 64-bit
// control masks take the builder path and still return one canonical
// edge per gate.
func TestGateMemoBypassWide(t *testing.T) {
	e := New()
	const n = 65
	controls := []Control{Pos(64), Neg(0), Pos(40)}
	g := e.GateDD(gX, n, 3, controls)
	created := e.Stats().NodesCreated
	again := e.GateDD(gX, n, 3, shuffled(rand.New(rand.NewSource(1304)), controls))
	s := e.Stats()
	if again != g {
		t.Fatalf("repeated wide gate %v, first %v", again, g)
	}
	if s.NodesCreated != created {
		t.Fatalf("repeated wide gate created %d nodes", s.NodesCreated-created)
	}
	if s.Gate.Lookups != 0 {
		t.Fatalf("wide gates consulted the memo %d times", s.Gate.Lookups)
	}
	if g.Var() != n-1 {
		t.Fatalf("wide gate top level %d, want %d", g.Var(), n-1)
	}
}

// TestGateMemoScheduleDifferential runs one seeded schedule of gate
// builds, mat-mat combines and mat-vec applications, with a collection
// midway, on two fresh engines: one builds gates through GateDD, the
// other through the builder alone. Node creation and the final state's
// serialised bytes must match exactly.
func TestGateMemoScheduleDifferential(t *testing.T) {
	const n = 10
	run := func(build func(e *Engine, u [2][2]complex128, target int, controls []Control) MEdge) (Stats, []byte) {
		rng := rand.New(rand.NewSource(1305))
		type gate struct {
			u        [2][2]complex128
			target   int
			controls []Control
		}
		pool := make([]gate, 12)
		for i := range pool {
			pool[i].u, pool[i].target, pool[i].controls = randGate(rng, n)
		}
		e := New()
		v := e.ZeroState(n)
		for step := 0; step < 300; step++ {
			g := pool[rng.Intn(len(pool))]
			m := build(e, g.u, g.target, shuffled(rng, g.controls))
			if rng.Intn(3) == 0 {
				h := pool[rng.Intn(len(pool))]
				m = e.MulMat(build(e, h.u, h.target, h.controls), m)
			}
			v = e.MulVec(m, v)
			if step == 150 {
				e.GarbageCollect([]VEdge{v}, nil)
			}
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteV(&buf, v); err != nil {
			t.Fatal(err)
		}
		return e.Stats(), buf.Bytes()
	}
	memo, memoBytes := run(func(e *Engine, u [2][2]complex128, target int, controls []Control) MEdge {
		return e.GateDD(u, n, target, controls)
	})
	direct, directBytes := run(func(e *Engine, u [2][2]complex128, target int, controls []Control) MEdge {
		return buildGateDirect(e, u, n, target, controls)
	})
	if memo.Gate.Hits == 0 || memo.GCs != 1 {
		t.Fatalf("schedule did not exercise the memo across a collection: %+v, %d GCs", memo.Gate, memo.GCs)
	}
	if memo.NodesCreated != direct.NodesCreated {
		t.Fatalf("nodes created: memo %d, builder %d", memo.NodesCreated, direct.NodesCreated)
	}
	if !bytes.Equal(memoBytes, directBytes) {
		t.Fatal("final states differ between memoised and direct gate builds")
	}
}
