package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cnum"
)

// addRatios are the operand-weight ratios |b.W/a.W| the add tests sweep,
// from equal magnitudes (the node-id tie-break) down past Tol, where the
// ratio canonicalises to zero and the sum is a alone.
var addRatios = []float64{1, 0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1.5 * cnum.Tol, 0.5 * cnum.Tol, 1e-12}

// ratioOperands scales the weights of two diagrams' top edges so that
// b.W/a.W = rho·e^{iφ} for a random phase φ. Small ratios put |b.W|
// at 2·Tol, so b never vanishes as an operand on its own and any drop
// comes from the ratio.
func ratioOperands(rng *rand.Rand, aW, bW, rho float64) (complex128, complex128) {
	phase := func() complex128 { return cmplx.Exp(complex(0, 2*math.Pi*rng.Float64())) }
	mag := 1 + 3*rng.Float64()
	if rho*mag < 2*cnum.Tol {
		mag = 2 * cnum.Tol / rho
	}
	a := complex(mag/aW, 0) * phase()
	b := complex(mag*rho/bW, 0) * phase()
	return a, b
}

// sameEdge reports whether two results are the same node with a
// bit-identical weight.
func sameEdge[N comparable](n1, n2 N, w1, w2 complex128) bool {
	return n1 == n2 &&
		math.Float64bits(real(w1)) == math.Float64bits(real(w2)) &&
		math.Float64bits(imag(w1)) == math.Float64bits(imag(w2))
}

// TestAddRatioKeyedAgainstDense sums random vector diagrams at operand
// weight ratios from 1 to 1e-12. The sum matches the dense sum within
// 1e-9 relative to the larger operand, Add(b,a) is a cache hit after
// Add(a,b) and returns the same node and weight bits, a ratio below Tol
// returns a's node, and the engine audits clean.
func TestAddRatioKeyedAgainstDense(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(6)
			a0, b0 := e.FromVector(randState(rng, n)), e.FromVector(randState(rng, n))
			for _, rho := range addRatios {
				sa, sb := ratioOperands(rng, cmplx.Abs(a0.W), cmplx.Abs(b0.W), rho)
				a := VEdge{W: a0.W * sa, N: a0.N}
				b := VEdge{W: b0.W * sb, N: b0.N}
				got := e.Add(a, b)
				before := e.stats.AddRecursions
				rev := e.Add(b, a)
				if d := e.stats.AddRecursions - before; d > 1 {
					t.Fatalf("seed %d, n=%d, ratio %g: Add(b,a) recursed %d times after Add(a,b), want a cache hit", seed, n, rho, d)
				}
				if !sameEdge(got.N, rev.N, got.W, rev.W) {
					t.Fatalf("seed %d, n=%d, ratio %g: Add(a,b) = %v, Add(b,a) = %v", seed, n, rho, got, rev)
				}
				if rho < cnum.Tol && got.N != a.N {
					t.Fatalf("seed %d, n=%d, ratio %g: sum is not a's node", seed, n, rho)
				}
				av, bv, gv := a.ToVector(), b.ToVector(), got.ToVector()
				scale := math.Max(1, cmplx.Abs(a.W))
				for i := range av {
					if d := cmplx.Abs(gv[i] - (av[i] + bv[i])); d > 1e-9*scale {
						t.Fatalf("seed %d, n=%d, ratio %g: entry %d off by %g (scale %g)", seed, n, rho, i, d, scale)
					}
				}
			}
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("seed %d: audit: %v", seed, err)
		}
	}
}

// TestAddMRatioKeyedAgainstDense is TestAddRatioKeyedAgainstDense for
// matrix diagrams (products of random gates, so the operands share
// little structure).
func TestAddMRatioKeyedAgainstDense(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		randMat := func(n int) MEdge {
			m := gateFromSeed(e, rng.Int63(), n)
			for k := 0; k < 2; k++ {
				m = e.MulMat(gateFromSeed(e, rng.Int63(), n), m)
			}
			return m
		}
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(4)
			a0, b0 := randMat(n), randMat(n)
			for _, rho := range addRatios {
				sa, sb := ratioOperands(rng, cmplx.Abs(a0.W), cmplx.Abs(b0.W), rho)
				a := MEdge{W: a0.W * sa, N: a0.N}
				b := MEdge{W: b0.W * sb, N: b0.N}
				got := e.AddM(a, b)
				before := e.stats.AddRecursions
				rev := e.AddM(b, a)
				if d := e.stats.AddRecursions - before; d > 1 {
					t.Fatalf("seed %d, n=%d, ratio %g: AddM(b,a) recursed %d times after AddM(a,b), want a cache hit", seed, n, rho, d)
				}
				if !sameEdge(got.N, rev.N, got.W, rev.W) {
					t.Fatalf("seed %d, n=%d, ratio %g: AddM(a,b) = %v, AddM(b,a) = %v", seed, n, rho, got, rev)
				}
				if rho < cnum.Tol && got.N != a.N {
					t.Fatalf("seed %d, n=%d, ratio %g: sum is not a's node", seed, n, rho)
				}
				am, bm, gm := a.ToMatrix(), b.ToMatrix(), got.ToMatrix()
				scale := math.Max(1, cmplx.Abs(a.W))
				for i := range am {
					for j := range am[i] {
						if d := cmplx.Abs(gm[i][j] - (am[i][j] + bm[i][j])); d > 1e-9*scale {
							t.Fatalf("seed %d, n=%d, ratio %g: entry (%d,%d) off by %g (scale %g)", seed, n, rho, i, j, d, scale)
						}
					}
				}
			}
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("seed %d: audit: %v", seed, err)
		}
	}
}
