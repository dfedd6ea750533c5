package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestMatMul32IntoCrossTierBitIdentity pins the attention-combine
// contract behind the vectorized saxpy walk: MatMul32Into produces
// identical bits at every kernel tier. The tiers vectorize along the
// independent output columns with the scalar mul-then-add order (no
// FMA) and never split the k walk, so — unlike the dot-product GEMMs —
// the combine is exchangeable across ISAs mid-stream. Shapes cover
// ragged k (odd, <4), ragged column counts (sub-lane, odd, >64) and
// empty inner dims.
func TestMatMul32IntoCrossTierBitIdentity(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {2, 7, 3}, {4, 4, 4}, {5, 13, 31},
		{3, 16, 33}, {8, 9, 100}, {2, 0, 5}, {17, 3, 1}, {32, 24, 180},
	}
	defer SetSIMDAuto()
	rng := rand.New(rand.NewSource(71))
	type gemm struct{ a, b, want *Matrix32 }
	cases := make([]gemm, len(shapes))
	if err := SetSIMD(SIMDGeneric); err != nil {
		t.Fatal(err)
	}
	for i, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		g := gemm{a: NewMatrix32(m, k), b: NewMatrix32(k, n), want: NewMatrix32(m, n)}
		for j := range g.a.Data {
			g.a.Data[j] = float32(rng.NormFloat64())
		}
		for j := range g.b.Data {
			g.b.Data[j] = float32(rng.NormFloat64())
		}
		MatMul32Into(g.want, g.a, g.b)
		cases[i] = g
	}
	forEachSIMDLevel(t, func(t *testing.T) {
		for i, sh := range shapes {
			g := cases[i]
			got := NewMatrix32(sh[0], sh[2])
			for j := range got.Data {
				got.Data[j] = float32(math.NaN()) // must be fully overwritten
			}
			MatMul32Into(got, g.a, g.b)
			for j, v := range got.Data {
				if math.Float32bits(v) != math.Float32bits(g.want.Data[j]) {
					t.Fatalf("%dx%dx%d elem %d: %g (bits %#x) vs generic %g (bits %#x)",
						sh[0], sh[1], sh[2], j, v, math.Float32bits(v),
						g.want.Data[j], math.Float32bits(g.want.Data[j]))
				}
			}
		}
	})
}

// TestMatMul32IntoMatchesF64OnOddWidths is the accuracy property for
// the vectorized combine at every tier: against the f64 product, each
// element stays inside the standard dot-product condition bound, on
// widths chosen to stress the 4-unroll tails (odd k) and the vector
// tails (odd, sub-lane, and >64 column counts).
func TestMatMul32IntoMatchesF64OnOddWidths(t *testing.T) {
	forEachSIMDLevel(t, func(t *testing.T) {
		for _, sh := range [][3]int{{3, 7, 5}, {5, 31, 3}, {2, 129, 65}, {1, 5, 1}, {4, 15, 9}} {
			m, k, n := sh[0], sh[1], sh[2]
			a := randomMatrix(m, k, int64(m*1000+k))
			b := randomMatrix(k, n, int64(k*1000+n))
			want := MatMul(a, b)
			dst := NewMatrix32(m, n)
			MatMul32Into(dst, down(a), down(b))
			checkMatClose(t, "MatMul32Into", dst, want, a, b, false)
		}
	})
}

// TestRowKernelHooksBitContract checks the per-tier row-kernel hooks
// feeding layer norm and softmax. Element-wise hooks (the residual add
// inside lnSum, the normalize-affine, the row scale) and the
// order-insensitive row max must produce the scalar formula's exact
// bits over whatever prefix they cover; the reduction returns (lnSum,
// lnSq) may reassociate and are bounded against f64 instead. Coverage
// must be a lane-aligned prefix the scalar tail can finish.
func TestRowKernelHooksBitContract(t *testing.T) {
	forEachSIMDLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(97))
		ks := kernels()
		for _, n := range []int{1, 3, 4, 5, 8, 17, 33, 64} {
			x := make([]float32, n)
			res := make([]float32, n)
			gamma := make([]float32, n)
			beta := make([]float32, n)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
				res[i] = float32(rng.NormFloat64())
				gamma[i] = float32(rng.NormFloat64())
				beta[i] = float32(rng.NormFloat64())
			}
			mean := float32(rng.NormFloat64())
			inv := float32(rng.Float64() + 0.5)
			scale := float32(0.25)

			checkCover := func(label string, c int) {
				t.Helper()
				if c < 0 || c > n || c%4 != 0 {
					t.Fatalf("n=%d: %s covered %d elements; want a 4-aligned prefix", n, label, c)
				}
			}

			o := make([]float32, n)
			c, partial := ks.lnSum(o, x, res)
			checkCover("lnSum", c)
			var f64sum float64
			for j := 0; j < c; j++ {
				want := x[j] + res[j]
				if math.Float32bits(o[j]) != math.Float32bits(want) {
					t.Fatalf("n=%d lnSum elem %d: %g vs scalar %g", n, j, o[j], want)
				}
				f64sum += float64(want)
			}
			if diff := math.Abs(float64(partial) - f64sum); diff > 1e-5*math.Abs(f64sum)+1e-5 {
				t.Fatalf("n=%d lnSum partial sum %g vs f64 %g", n, partial, f64sum)
			}
			for j := c; j < n; j++ {
				o[j] = x[j] + res[j]
			}

			c, partial = ks.lnSq(o, mean)
			checkCover("lnSq", c)
			var f64sq float64
			for j := 0; j < c; j++ {
				d := o[j] - mean
				f64sq += float64(d) * float64(d)
			}
			if diff := math.Abs(float64(partial) - f64sq); diff > 1e-5*f64sq+1e-5 {
				t.Fatalf("n=%d lnSq partial sum %g vs f64 %g", n, partial, f64sq)
			}

			before := append([]float32(nil), o...)
			c = ks.lnAffine(o, mean, inv, gamma, beta)
			checkCover("lnAffine", c)
			for j := 0; j < c; j++ {
				want := (before[j]-mean)*inv*gamma[j] + beta[j]
				if math.Float32bits(o[j]) != math.Float32bits(want) {
					t.Fatalf("n=%d lnAffine elem %d: %g vs scalar %g", n, j, o[j], want)
				}
			}

			c, max := ks.rowMax(x, scale)
			checkCover("rowMax", c)
			if c > 0 {
				want := x[0] * scale
				for j := 1; j < c; j++ {
					if v := x[j] * scale; v > want {
						want = v
					}
				}
				if math.Float32bits(max) != math.Float32bits(want) {
					t.Fatalf("n=%d rowMax over %d: %g vs scalar %g", n, c, max, want)
				}
			}

			before = append([]float32(nil), o...)
			c = ks.vscale(o, inv)
			checkCover("vscale", c)
			for j := 0; j < c; j++ {
				want := before[j] * inv
				if math.Float32bits(o[j]) != math.Float32bits(want) {
					t.Fatalf("n=%d vscale elem %d: %g vs scalar %g", n, j, o[j], want)
				}
			}
		}
	})
}

// TestBestSIMDPerArch pins the per-architecture dispatch expectations:
// the NEON tier is the arm64 baseline (and unsupported elsewhere), the
// x86 tiers exist only on amd64, and BestSIMD always lands on this
// arch's top tier. On the arm64 CI runner this is the proof that
// BestSIMD() == neon, not a silent generic fallback.
func TestBestSIMDPerArch(t *testing.T) {
	supported := map[SIMDLevel]bool{}
	for _, l := range SupportedSIMDLevels() {
		supported[l] = true
	}
	switch runtime.GOARCH {
	case "arm64":
		if BestSIMD() != SIMDNEON {
			t.Fatalf("BestSIMD() = %s on arm64; want neon", BestSIMD())
		}
		if !supported[SIMDNEON] || supported[SIMDSSE2] || supported[SIMDAVX2] {
			t.Fatalf("arm64 supported set %v; want neon without x86 tiers", SupportedSIMDLevels())
		}
	case "amd64":
		if supported[SIMDNEON] {
			t.Fatalf("amd64 supported set %v claims neon", SupportedSIMDLevels())
		}
		if !supported[SIMDSSE2] {
			t.Fatalf("amd64 supported set %v lacks sse2", SupportedSIMDLevels())
		}
		if best := BestSIMD(); best < SIMDSSE2 || best == SIMDNEON {
			t.Fatalf("BestSIMD() = %s on amd64", best)
		}
	default:
		if len(SupportedSIMDLevels()) != 1 || BestSIMD() != SIMDGeneric {
			t.Fatalf("generic-only arch: supported %v best %s", SupportedSIMDLevels(), BestSIMD())
		}
	}
	// Forcing a tier from a foreign architecture must fail loudly, with
	// the error naming this platform.
	for _, l := range []SIMDLevel{SIMDSSE2, SIMDAVX2, SIMDNEON} {
		if supported[l] {
			continue
		}
		err := SetSIMD(l)
		if err == nil {
			SetSIMDAuto()
			t.Fatalf("SetSIMD(%s) succeeded on %s", l, runtime.GOARCH)
		}
	}
}
