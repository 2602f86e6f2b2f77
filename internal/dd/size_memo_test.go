package dd

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// productFromSeed multiplies up to five random gates on n qubits, so
// the result has shared sub-diagrams the walk must count once.
func productFromSeed(e *Engine, seed int64, n int) MEdge {
	rng := rand.New(rand.NewSource(seed))
	m := gateFromSeed(e, rng.Int63(), n)
	for k := rng.Intn(5); k > 0; k-- {
		m = e.MulMat(gateFromSeed(e, rng.Int63(), n), m)
	}
	return m
}

// TestSizeMemoMatchesReference: SizeM agrees with the allocating
// reference walk on the first call (a memo miss) and on repeat calls
// (memo hits), and the Size counter records exactly that.
func TestSizeMemoMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		e := New()
		m := productFromSeed(e, seed, int(nRaw)%6+1)
		if m.IsTerminal() {
			return true
		}
		want := m.Size()
		before := e.Stats().Size
		for call := 0; call < 3; call++ {
			if got := e.SizeM(m); got != want {
				t.Logf("call %d: SizeM %d, reference %d", call, got, want)
				return false
			}
		}
		s := e.Stats().Size
		if s.Lookups-before.Lookups != 3 || s.Hits-before.Hits != 2 {
			t.Logf("Size counter moved by %d lookups, %d hits; want 3 and 2",
				s.Lookups-before.Lookups, s.Hits-before.Hits)
			return false
		}
		return e.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSizeMemoRecycledSlots: after a collection frees every memoised
// root, the arena hands those slots to new nodes, and each new node
// must report its own size, not its predecessor's.
func TestSizeMemoRecycledSlots(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1501))
	old := make(map[*MNode]bool)
	for i := 0; i < 40; i++ {
		m := productFromSeed(e, rng.Int63(), 6)
		e.SizeM(m)
		old[m.N] = true
	}
	e.GarbageCollect(nil, nil)
	if e.Stats().NodesRecycled == 0 {
		t.Fatal("collection recycled nothing")
	}

	reused := 0
	for i := 0; i < 200; i++ {
		m := productFromSeed(e, rng.Int63(), 7)
		seen := make(map[*MNode]bool)
		var walk func(n *MNode)
		walk = func(n *MNode) {
			if n == mTerminal || seen[n] {
				return
			}
			seen[n] = true
			if old[n] {
				reused++
				sub := MEdge{W: 1, N: n}
				if got, want := e.SizeM(sub), sub.Size(); got != want {
					t.Fatalf("node in a recycled slot reports size %d, reference %d", got, want)
				}
			}
			for _, c := range n.E {
				walk(c.N)
			}
		}
		walk(m.N)
		if got, want := e.SizeM(m), m.Size(); got != want {
			t.Fatalf("product %d: SizeM %d, reference %d", i, got, want)
		}
	}
	if reused == 0 {
		t.Fatal("no memoised root's slot was reused; the test exercised nothing")
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeMemoAcrossSwaps: level swaps build new diagrams and leave the
// originals' memoised sizes valid, and an engine that continues another
// engine's counters (a repair's rebuild) counts its own nodes afresh
// while its Size counter carries on from the old engine's.
func TestSizeMemoAcrossSwaps(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1502))
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(4)
		m := productFromSeed(e, rng.Int63(), n)
		want := m.Size()
		if got := e.SizeM(m); got != want {
			t.Fatalf("product %d: SizeM %d, reference %d", i, got, want)
		}
		sw := m
		for k := 0; k < 3; k++ {
			sw = e.SwapAdjacentM(sw, rng.Intn(n-1))
			if got, ref := e.SizeM(sw), sw.Size(); got != ref {
				t.Fatalf("product %d after %d swaps: SizeM %d, reference %d", i, k+1, got, ref)
			}
		}
		if got := e.SizeM(m); got != want {
			t.Fatalf("product %d: SizeM %d after swapping, reference %d", i, got, want)
		}

		fresh := New()
		fresh.ContinueStats(e)
		before := fresh.Stats().Size
		cp := fresh.CopyM(m)
		if got := fresh.SizeM(cp); got != want {
			t.Fatalf("product %d in a fresh engine: SizeM %d, reference %d", i, got, want)
		}
		if s := fresh.Stats().Size; s.Lookups != before.Lookups+1 || s.Hits != before.Hits {
			t.Fatalf("fresh engine counted %+v after %+v; want one more lookup, no hit", s, before)
		}
		if err := fresh.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeMemoTerminalAndIdentity pins the answers for the zero matrix,
// the scalar one, the terminal and identity diagrams, and checks the
// shared terminal is never written or counted.
func TestSizeMemoTerminalAndIdentity(t *testing.T) {
	e := New()
	for _, m := range []MEdge{MZero(), MOne(), {W: 0.5, N: mTerminal}} {
		if got := e.SizeM(m); got != 0 {
			t.Fatalf("SizeM(%v) = %d, want 0", m, got)
		}
	}
	if mTerminal.size != 0 {
		t.Fatalf("terminal carries size %d", mTerminal.size)
	}
	if s := e.Stats().Size; s.Lookups != 0 {
		t.Fatalf("terminal queries counted as %d lookups", s.Lookups)
	}
	for k := 1; k <= 8; k++ {
		id := e.Identity(k)
		for call := 0; call < 2; call++ {
			if got := e.SizeM(id); got != k {
				t.Fatalf("SizeM(Identity(%d)) call %d = %d", k, call, got)
			}
		}
	}
}

// TestSizeMemoConcurrentEngines sizes diagrams, the terminal included,
// on four engines at once. The engines share the matrix terminal, so
// under -race this fails if SizeM ever writes the memo onto it.
func TestSizeMemoConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e := New()
			for i := int64(0); i < 20; i++ {
				m := productFromSeed(e, seed*100+i, 5)
				for _, q := range []MEdge{m, MZero(), MOne(), e.Identity(5)} {
					if got, want := e.SizeM(q), q.Size(); got != want {
						t.Errorf("engine %d: SizeM %d, reference %d", seed, got, want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestSizeMemoNodeLayout: the memo field must live in MNode's padding;
// a larger node would grow every arena chunk.
func TestSizeMemoNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(MNode{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(MNode{}) = %d, want 120", got)
	}
}

// TestAuditDetectsSizeMemoCorruption overwrites a memoised size in
// place. Nothing else derives from the field, so the size-memo check is
// the only detector.
func TestAuditDetectsSizeMemoCorruption(t *testing.T) {
	e := New()
	m := productFromSeed(e, 1503, 5)
	want := e.SizeM(m)
	if err := e.Audit(); err != nil {
		t.Fatalf("clean engine: %v", err)
	}
	m.N.size = uint32(want + 1)
	err := e.Audit()
	if ie, ok := err.(*IntegrityError); !ok || ie.Check != "size-memo" || ie.NodeID != m.N.id {
		t.Fatalf("corrupted size undetected or misclassified: %v", err)
	}
	m.N.size = uint32(want)
	if err := e.Audit(); err != nil {
		t.Fatalf("engine not clean after restoring the size: %v", err)
	}
}

// BenchmarkSizeMHit times SizeM on a root already counted: one field
// load. CI greps it for 0 allocs/op.
func BenchmarkSizeMHit(b *testing.B) {
	e := New()
	m := productFromSeed(e, 1504, 12)
	e.SizeM(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.SizeM(m)
	}
}
