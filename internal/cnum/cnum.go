// Package cnum provides tolerance-aware handling of the complex edge
// weights used throughout the decision-diagram engine.
//
// Floating-point rounding means that two computations of the "same"
// amplitude rarely produce bit-identical complex128 values. Decision
// diagrams, however, derive their compactness from recognising equal
// sub-structures, so weights must be compared — and, for hash-consing,
// canonicalised — up to a tolerance. This package supplies:
//
//   - approximate comparison helpers (Eq, IsZero, IsOne),
//   - a quantisation Key usable in hash tables, and
//   - a Table that maps each weight to a canonical representative so that
//     all values within tolerance of each other share one bit pattern.
//
// The approach follows the accuracy/compactness treatment of
// Zulehner, Niemann, Drechsler, Wille (DATE 2019, ref [21] of the paper).
package cnum

import (
	"math"
	"math/cmplx"
)

// Tol is the default tolerance under which two floating-point values are
// considered equal. It matches the magnitude used by the JKU DD package.
const Tol = 1e-10

// Common constants used pervasively by gate definitions and the engine.
var (
	Zero = complex(0, 0)
	One  = complex(1, 0)
	// SqrtHalf is 1/√2, the Hadamard weight.
	SqrtHalf = complex(math.Sqrt2/2, 0)
)

// EqFloat reports whether two float64 values are equal within Tol.
func EqFloat(a, b float64) bool {
	return math.Abs(a-b) < Tol
}

// Eq reports whether two complex values are equal within Tol in both the
// real and the imaginary component.
func Eq(a, b complex128) bool {
	return EqFloat(real(a), real(b)) && EqFloat(imag(a), imag(b))
}

// IsZero reports whether c is zero within Tol.
func IsZero(c complex128) bool {
	return Eq(c, Zero)
}

// IsOne reports whether c is one within Tol.
func IsOne(c complex128) bool {
	return Eq(c, One)
}

// Key is a tolerance-quantised fingerprint of a complex value. Values
// whose components fall into the same quantisation cell share a Key.
// Values within Tol of each other land in the same or an adjacent cell;
// Table handles the adjacent-cell case by probing only the cells a value
// within Tol can round into.
type Key struct {
	Re, Im int64
}

// quantum is the cell width of the quantisation grid. It is a few times
// the tolerance so that values within Tol of a cell centre stay inside.
const quantum = 4 * Tol

// probeTol is the half-width of the interval Lookup probes around a
// component: a hair above Tol, so that the floating-point rounding of
// x±probeTol still leaves the interval a superset of the values Eq
// accepts. Eq's |a−b| < Tol holds in exact arithmetic too (Tol is a
// float64 and rounding is monotone), and the rounding of x−probeTol is
// at most half an ulp of x, so the superset holds for every component
// below 2^14 in magnitude; the engine's weights are normalised to
// magnitude at most one. Beyond that a tolerance match may be missed and
// the value registers as a representative of its own.
const probeTol = Tol + Tol/64

// KeyOf returns the quantisation key of c.
func KeyOf(c complex128) Key {
	return Key{Re: keyOf(real(c)), Im: keyOf(imag(c))}
}

func keyOf(x float64) int64 { return int64(math.Round(x / quantum)) }

// Table canonicalises complex values: Lookup returns, for every value,
// a representative such that any two inputs within Tol of each other
// return the identical bit pattern. Node hash-consing in the DD engine
// may then use exact comparison on canonical weights.
//
// Storage is an open-addressing hash table over quantisation keys
// (power-of-two capacity, linear probing, doubling at 3/4 load). A cell
// may hold several representatives — they then occupy separate slots
// with equal keys on the same probe chain. Lookup sits on the node
// creation hot path: it walks the chains of only the 1–4 cells a value
// within Tol can round into (2.25 on average with quantum = 4·Tol).
//
// The zero Table is ready to use.
type Table struct {
	slots  []tableSlot
	count  int
	hits   uint64
	misses uint64
}

type tableSlot struct {
	key  Key
	rep  complex128
	used bool
}

const tableInitSlots = 256

// hashKey mixes a quantisation key into a slot hash.
func hashKey(k Key) uint32 {
	h := uint64(k.Re)*0x9e3779b97f4a7c15 ^ uint64(k.Im)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return uint32(h)
}

// Lookup returns the canonical representative of c, registering c as a
// new representative if no existing one is within tolerance. Exact zero
// and one short-circuit so that the ubiquitous structural weights stay
// bit-exact.
//
// A representative within Tol of c may sit in c's cell or in a
// neighbouring one. Lookup probes the cells from KeyOf(c−probeTol) to
// KeyOf(c+probeTol) per component, in row-major order (real part
// outer, both ascending), and returns the first match: the cells it
// skips hold no value within Tol, so the result is the one a scan of
// the full 3×3 neighbourhood in the same order would return.
func (t *Table) Lookup(c complex128) complex128 {
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
	re, im := real(c), imag(c)
	reLo, imLo := keyOf(re-probeTol), keyOf(im-probeTol)
	// Count cells by offset, not by key: a saturated conversion of a
	// non-finite value must not wrap the loop.
	reN, imN := keyOf(re+probeTol)-reLo, keyOf(im+probeTol)-imLo
	mask := uint32(len(t.slots) - 1)
	for dr := int64(0); dr <= reN; dr++ {
		for di := int64(0); di <= imN; di++ {
			nk := Key{reLo + dr, imLo + di}
			for i := hashKey(nk) & mask; t.slots[i].used; i = (i + 1) & mask {
				if t.slots[i].key == nk && Eq(t.slots[i].rep, c) {
					t.hits++
					return t.slots[i].rep
				}
			}
		}
	}
	t.misses++
	t.insert(KeyOf(c), c)
	return c
}

// insert registers a new representative, growing the table as needed.
func (t *Table) insert(k Key, c complex128) {
	if (t.count+1)*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := hashKey(k) & mask
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: k, rep: c, used: true}
	t.count++
}

func (t *Table) grow() {
	old := t.slots
	t.slots = make([]tableSlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if !s.used {
			continue
		}
		i := hashKey(s.key) & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Canonical reports whether c is exactly a value Lookup could have
// returned: one of the exact zero/one short-circuits, or bit-identical
// to a stored representative. Unlike Lookup it never inserts, which
// makes it safe for integrity audits of a live table — every edge
// weight a DD engine stores went through Lookup, so a weight for which
// Canonical is false has been corrupted after canonicalisation.
func (t *Table) Canonical(c complex128) bool {
	if c == Zero || c == One {
		return true
	}
	// A value within tolerance of zero/one but not bit-equal can never
	// come out of Lookup (the short-circuits fire first).
	if IsZero(c) || Eq(c, One) {
		return false
	}
	if t.slots == nil {
		return false
	}
	// Bit-identity implies the same quantisation key, so only the exact
	// cell needs probing (Lookup's neighbour cells are for tolerance
	// matches of *different* bit patterns).
	k := KeyOf(c)
	mask := uint32(len(t.slots) - 1)
	for i := hashKey(k) & mask; t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == k && t.slots[i].rep == c {
			return true
		}
	}
	return false
}

// Size returns the number of distinct representatives stored.
func (t *Table) Size() int { return t.count }

// Stats returns the number of Lookup calls that were answered from an
// existing representative (hits) and the number that registered a new
// one (misses). Exact zero/one short-circuits are counted in neither.
func (t *Table) Stats() (hits, misses uint64) {
	return t.hits, t.misses
}

// ResetStats zeroes the hit and miss counters; the representatives stay.
func (t *Table) ResetStats() { t.SetStats(0, 0) }

// SetStats overwrites the hit and miss counters; the representatives
// stay.
func (t *Table) SetStats(hits, misses uint64) { t.hits, t.misses = hits, misses }

// Reset discards all representatives and statistics.
func (t *Table) Reset() {
	t.slots = nil
	t.count = 0
	t.hits, t.misses = 0, 0
}

// Abs2 returns |c|², the squared magnitude — the probability weight of an
// amplitude.
func Abs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// Polar returns the magnitude and phase of c, convenience over cmplx.
func Polar(c complex128) (r, theta float64) {
	return cmplx.Polar(c)
}
