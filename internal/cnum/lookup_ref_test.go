package cnum

import (
	"math"
	"math/rand"
	"testing"
)

// refLookup is the full-neighbourhood Lookup: it probes all nine cells
// around KeyOf(c) in row-major order. Lookup must return the same
// representative while probing only the cells a value within Tol can
// round into.
func refLookup(t *Table, c complex128) complex128 {
	if c == Zero || c == One {
		return c
	}
	if IsZero(c) {
		return Zero
	}
	if Eq(c, One) {
		return One
	}
	if t.slots == nil {
		t.slots = make([]tableSlot, tableInitSlots)
	}
	k := KeyOf(c)
	mask := uint32(len(t.slots) - 1)
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			nk := Key{k.Re + dr, k.Im + di}
			for i := hashKey(nk) & mask; t.slots[i].used; i = (i + 1) & mask {
				if t.slots[i].key == nk && Eq(t.slots[i].rep, c) {
					t.hits++
					return t.slots[i].rep
				}
			}
		}
	}
	t.misses++
	t.insert(k, c)
	return c
}

// boundaryComponent returns a value near a quantisation cell boundary
// k·quantum ± quantum/2, offset by up to ±1.5·Tol, or exactly ±Tol or
// ±probeTol away from the boundary.
func boundaryComponent(rng *rand.Rand, k int64) float64 {
	b := float64(k)*quantum + quantum/2
	if rng.Intn(2) == 0 {
		b -= quantum
	}
	switch rng.Intn(6) {
	case 0:
		return b + Tol
	case 1:
		return b - Tol
	case 2:
		return b + probeTol
	case 3:
		return b - probeTol
	default:
		return b + (rng.Float64()*3-1.5)*Tol
	}
}

// TestLookupMatchesFullNeighbourhoodScan feeds the same value sequence
// to Lookup and to the reference 3×3 scan on two tables and requires
// bit-identical representatives and identical hit/miss counts. The
// values cluster around a few anchors so that cells fill with several
// representatives and tolerance matches cross cell boundaries and
// corners.
func TestLookupMatchesFullNeighbourhoodScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		anchors := make([]int64, 16)
		for i := range anchors {
			anchors[i] = rng.Int63n(1<<31) - 1<<30 // keys of components in about ±0.43
		}
		var got, want Table
		for i := 0; i < 200_000; i++ {
			var c complex128
			switch rng.Intn(4) {
			case 0: // uniform in the unit square
				c = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			case 1: // near a corner: both components near a boundary
				k := anchors[rng.Intn(len(anchors))]
				c = complex(boundaryComponent(rng, k), boundaryComponent(rng, k+1))
			case 2: // near an edge: the real part near a boundary
				k := anchors[rng.Intn(len(anchors))]
				c = complex(boundaryComponent(rng, k), float64(k)*quantum+(rng.Float64()-0.5)*quantum)
			default: // near an edge: the imaginary part near a boundary
				k := anchors[rng.Intn(len(anchors))]
				c = complex(float64(k)*quantum+(rng.Float64()-0.5)*quantum, boundaryComponent(rng, k))
			}
			g, w := got.Lookup(c), refLookup(&want, c)
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("seed %d, value %d (%v): Lookup = %v, full scan = %v", seed, i, c, g, w)
			}
		}
		gh, gm := got.Stats()
		wh, wm := want.Stats()
		if gh != wh || gm != wm || got.Size() != want.Size() {
			t.Fatalf("seed %d: Lookup hits/misses/size %d/%d/%d, full scan %d/%d/%d",
				seed, gh, gm, got.Size(), wh, wm, want.Size())
		}
		if gh == 0 || gm == 0 {
			t.Fatalf("seed %d: degenerate sequence (%d hits, %d misses)", seed, gh, gm)
		}
	}
}
