package nn

import (
	"math"
	"testing"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", F64, true},
		{"f64", F64, true},
		{"f32", F32, true},
		{"i8", I8, true},
		{"fp16", F64, false},
		{"F32", F64, false},
		{"int8", F64, false},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePrecision(%q) accepted; want error", c.in)
		}
	}
	for _, p := range []Precision{F64, F32, I8} {
		rt, err := ParsePrecision(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip %v → %q → %v, %v", p, p.String(), rt, err)
		}
	}
}

// down converts a float64 matrix to a fresh float32 one.
func down(x *Matrix) *Matrix32 {
	d := NewMatrix32(x.Rows, x.Cols)
	Downconvert(d, x)
	return d
}

// propShapes are the random shapes the kernel property tests sweep:
// the usual packed-batch sizes plus empty, single-row, and ragged
// (non-multiple-of-4) widths that exercise the unroll tails.
var propShapes = [][2]int{{0, 8}, {1, 1}, {1, 32}, {3, 5}, {7, 24}, {13, 17}, {40, 32}, {64, 33}, {128, 64}}

// TestDenseInferInto32ErrorBound bounds |f32 − f64| per output element
// by a relative tolerance against the sum of absolute contributions
// (the natural condition number of a dot product). Widths stay ≤128,
// so float32 accumulation error is well under 1e-5 relative.
func TestDenseInferInto32ErrorBound(t *testing.T) {
	rng := NewRNG(41)
	for _, shape := range propShapes {
		rows, in := shape[0], shape[1]
		out := in/2 + 3
		d := NewDense("p", in, out, rng)
		rng.NormalInit(d.B.W, 0.5)
		x := randomMatrix(rows, in, int64(100+rows*in))
		want := d.Infer(x)
		dst := NewMatrix32(rows, out)
		d.InferInto32(dst, down(x))
		for i := 0; i < rows; i++ {
			for o := 0; o < out; o++ {
				refAbs := math.Abs(d.B.W.Data[o])
				for j := 0; j < in; j++ {
					refAbs += math.Abs(x.Row(i)[j] * d.W.W.Data[j*out+o])
				}
				diff := math.Abs(float64(dst.Row(i)[o]) - want.Row(i)[o])
				if bound := 1e-5*refAbs + 1e-7; diff > bound {
					t.Fatalf("shape %dx%d→%d elem (%d,%d): |f32−f64| = %g > %g", rows, in, out, i, o, diff, bound)
				}
			}
		}
	}
}

// TestDenseInferIntoI8ErrorBound checks the W8A16 kernel against the
// analytic quantization bound: with the group-wise weight scale s_w
// and the row's dynamic int16 activation step s_x = maxabs/32767, each
// output obeys |y_i8 − y_f64| ≤ Σ_j (|x_j|·s_w/2 + |ŵ_j|·s_x/2) plus
// float32 slack, where ŵ is the dequantized weight and s_w is the
// scale of j's group. A zero activation row has s_x = 0 (represented
// exactly).
func TestDenseInferIntoI8ErrorBound(t *testing.T) {
	rng := NewRNG(43)
	var qs I8Scratch
	for _, shape := range propShapes {
		rows, in := shape[0], shape[1]
		out := in/2 + 3
		d := NewDense("q", in, out, rng)
		rng.NormalInit(d.B.W, 0.5)
		x := randomMatrix(rows, in, int64(200+rows*in))
		want := d.Infer(x)
		dst := NewMatrix32(rows, out)
		x32 := down(x)
		d.InferIntoI8(dst, x32, &qs)
		pk := d.packI8s()
		nb := (in + i8Group - 1) / i8Group
		for i := 0; i < rows; i++ {
			// Per-row activation step, mirroring the kernel.
			var maxabs float32
			for _, v := range x32.Row(i) {
				if v < 0 {
					v = -v
				}
				if v > maxabs {
					maxabs = v
				}
			}
			sx := float64(maxabs) / 32767
			for o := 0; o < out; o++ {
				bound := 1e-6
				refAbs := math.Abs(d.B.W.Data[o])
				for j := 0; j < in; j++ {
					g := j / i8Group
					sw := float64(pk.scale[o*nb+g])
					xv := math.Abs(x.Row(i)[j])
					wq := math.Abs(float64(pk.wt[o*pk.inPad+j]))
					bound += xv*sw/2 + wq*sw*sx/2
					refAbs += xv * math.Abs(d.W.W.Data[j*out+o])
				}
				bound = bound*1.01 + 1e-5*refAbs // float32 rounding slack
				diff := math.Abs(float64(dst.Row(i)[o]) - want.Row(i)[o])
				if diff > bound {
					t.Fatalf("shape %dx%d→%d elem (%d,%d): |i8−f64| = %g > %g", rows, in, out, i, o, diff, bound)
				}
			}
		}
	}
}

// TestInferIntoI8ZeroRowIsExactBias pins the zero-skip semantics: a
// zero activation row must produce exactly the (float32) bias, the
// same answer the f64 kernel gives padded rows.
func TestInferIntoI8ZeroRowIsExactBias(t *testing.T) {
	rng := NewRNG(47)
	d := NewDense("z", 16, 9, rng)
	rng.NormalInit(d.B.W, 1)
	x := NewMatrix32(3, 16)
	for j := range x.Row(1) { // middle row nonzero, outer rows zero
		x.Row(1)[j] = float32(j) - 7.5
	}
	dst := NewMatrix32(3, 9)
	var qs I8Scratch
	d.InferIntoI8(dst, x, &qs)
	for _, r := range []int{0, 2} {
		for o := 0; o < 9; o++ {
			if dst.Row(r)[o] != float32(d.B.W.Data[o]) {
				t.Fatalf("zero row %d output %d = %v, want exact bias %v", r, o, dst.Row(r)[o], float32(d.B.W.Data[o]))
			}
		}
	}
}

// TestMatMul32ErrorBound covers the float32 attention GEMMs (plain and
// transposed) against their f64 references.
func TestMatMul32ErrorBound(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {5, 7, 3}, {16, 16, 16}, {33, 9, 21}, {0, 4, 4}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := randomMatrix(m, k, int64(m*100+k))
		b := randomMatrix(k, n, int64(k*100+n))
		bt := randomMatrix(n, k, int64(n*100+k+1))
		want := MatMul(a, b)
		dst := NewMatrix32(m, n)
		MatMul32Into(dst, down(a), down(b))
		checkMatClose(t, "MatMul32Into", dst, want, a, b, false)
		wantT := MatMulT(a, bt)
		dstT := NewMatrix32(m, n)
		MatMulT32Into(dstT, down(a), down(bt))
		checkMatClose(t, "MatMulT32Into", dstT, wantT, a, bt, true)
	}
}

func checkMatClose(t *testing.T, label string, got *Matrix32, want, a, b *Matrix, transposed bool) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			refAbs := 1e-7
			for k := 0; k < a.Cols; k++ {
				bv := 0.0
				if transposed {
					bv = b.Row(j)[k]
				} else {
					bv = b.Row(k)[j]
				}
				refAbs += math.Abs(a.Row(i)[k] * bv)
			}
			diff := math.Abs(float64(got.Row(i)[j]) - want.Row(i)[j])
			if bound := 1e-5 * refAbs; diff > bound {
				t.Fatalf("%s elem (%d,%d): diff %g > %g", label, i, j, diff, bound)
			}
		}
	}
}

// TestExp32Accuracy sweeps the softmax-relevant range and bounds the
// relative error of the fast exponential.
func TestExp32Accuracy(t *testing.T) {
	worst := 0.0
	for x := -87.0; x <= 10; x += 0.0137 {
		got := float64(exp32(float32(x)))
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 5e-5 {
		t.Fatalf("exp32 worst relative error %g > 5e-5", worst)
	}
	if exp32(-200) != 0 {
		t.Fatalf("exp32(-200) = %v, want 0", exp32(-200))
	}
}

// TestTanh32Accuracy bounds the absolute error of the fast tanh over
// the GELU-relevant range (tanh is bounded, so absolute is the right
// metric).
func TestTanh32Accuracy(t *testing.T) {
	worst := 0.0
	for x := -12.0; x <= 12; x += 0.0093 {
		diff := math.Abs(float64(tanh32(float32(x))) - math.Tanh(x))
		if diff > worst {
			worst = diff
		}
	}
	if worst > 1e-4 {
		t.Fatalf("tanh32 worst absolute error %g > 1e-4", worst)
	}
}

// TestScaledSoftmax32ErrorBound compares f32 softmax rows (fast exp,
// reciprocal normalization) against the f64 kernel; outputs are
// probabilities so the bound is absolute.
func TestScaledSoftmax32ErrorBound(t *testing.T) {
	const scale = 0.25
	forEachSIMDLevel(t, func(t *testing.T) {
		for _, shape := range [][2]int{{1, 1}, {6, 6}, {17, 5}, {0, 4}, {3, 0}, {9, 48}} {
			x := randomMatrix(shape[0], shape[1], int64(shape[0]*37+shape[1]))
			x.ScaleInPlace(4) // widen logit spread
			want := NewMatrix(shape[0], shape[1])
			ScaledSoftmaxRowsInto(want, x, scale)
			dst := NewMatrix32(shape[0], shape[1])
			ScaledSoftmaxRows32Into(dst, down(x), scale)
			for i := range want.Data {
				if diff := math.Abs(float64(dst.Data[i]) - want.Data[i]); diff > 1e-4 {
					t.Fatalf("shape %v elem %d: |f32−f64| = %g > 1e-4", shape, i, diff)
				}
			}
		}
	})
}

// TestLayerNormInferResidualInto32ErrorBound compares the fused f32
// residual+norm against f64. Outputs are normalized (unit variance
// before the affine), so an absolute bound is appropriate.
func TestLayerNormInferResidualInto32ErrorBound(t *testing.T) {
	forEachSIMDLevel(t, func(t *testing.T) {
		for _, dim := range []int{3, 24, 37} { // sub-lane, lane-aligned, ragged tails
			ln := NewLayerNorm("p32", dim)
			rng := NewRNG(53)
			rng.NormalInit(ln.Gamma.W, 0.3)
			rng.NormalInit(ln.Beta.W, 0.3)
			for _, rows := range []int{0, 1, 5, 37} {
				x := randomMatrix(rows, dim, int64(rows)+300)
				res := randomMatrix(rows, dim, int64(rows)+400)
				want := NewMatrix(rows, dim)
				ln.InferResidualInto(want, x.Clone(), res)
				dst := NewMatrix32(rows, dim)
				ln.InferResidualInto32(dst, down(x), down(res))
				for i := range want.Data {
					if diff := math.Abs(float64(dst.Data[i]) - want.Data[i]); diff > 1e-3 {
						t.Fatalf("dim=%d rows=%d elem %d: |f32−f64| = %g > 1e-3", dim, rows, i, diff)
					}
				}
			}
		}
	})
}

// TestGELUInferInto32ErrorBound compares the fast-tanh GELU with the
// f64 reference, relative to |x| (GELU(x) ≈ x for large x).
func TestGELUInferInto32ErrorBound(t *testing.T) {
	g := NewGELU()
	x := randomMatrix(11, 13, 61)
	x.ScaleInPlace(3)
	want := g.Forward(x, false)
	dst := NewMatrix32(11, 13)
	g.InferInto32(dst, down(x))
	for i := range want.Data {
		diff := math.Abs(float64(dst.Data[i]) - want.Data[i])
		if bound := 1e-4*math.Abs(x.Data[i]) + 1e-6; diff > bound {
			t.Fatalf("elem %d (x=%g): |f32−f64| = %g > %g", i, x.Data[i], diff, bound)
		}
	}
}

// TestPackInvalidation pins the staleness contract: mutating a Param
// (directly + Bump, or through an optimizer Step) rebuilds the packed
// mirrors, and an unchanged Param reuses the cached pack.
func TestPackInvalidation(t *testing.T) {
	rng := NewRNG(59)
	d := NewDense("inv", 8, 6, rng)
	x := randomMatrix(4, 8, 71)
	x32 := down(x)
	dst := NewMatrix32(4, 6)
	d.InferInto32(dst, x32)
	p1 := d.p32.Load()
	d.InferInto32(dst, x32)
	if d.p32.Load() != p1 {
		t.Fatal("pack32 rebuilt without a weight mutation")
	}
	// Direct mutation + Bump must invalidate.
	d.W.W.Data[0] += 1
	d.W.Bump()
	d.InferInto32(dst, x32)
	if d.p32.Load() == p1 {
		t.Fatal("pack32 not rebuilt after Bump")
	}
	want := d.Infer(x)
	if math.Abs(float64(dst.Row(0)[0])-want.Row(0)[0]) > 1e-4*math.Abs(want.Row(0)[0])+1e-5 {
		t.Fatalf("stale pack served after Bump: got %v want %v", dst.Row(0)[0], want.Row(0)[0])
	}
	// Optimizer steps bump every registered param.
	var qs I8Scratch
	dstQ := NewMatrix32(4, 6)
	d.InferIntoI8(dstQ, x32, &qs)
	q1 := d.pi8.Load()
	wv, bv := d.W.Version(), d.B.Version()
	adam := NewAdam(0.01)
	adam.Register(d.Params()...)
	d.W.G.Fill(0.5)
	adam.Step()
	if d.W.Version() == wv || d.B.Version() == bv {
		t.Fatal("Adam.Step did not bump param versions")
	}
	d.InferIntoI8(dstQ, x32, &qs)
	if d.pi8.Load() == q1 {
		t.Fatal("packI8 not rebuilt after optimizer step")
	}
}

// TestPackI8ZeroColumn pins the degenerate all-zero weight column: its
// scale stays 0 and the output is exactly the bias regardless of
// input.
func TestPackI8ZeroColumn(t *testing.T) {
	rng := NewRNG(67)
	d := NewDense("zc", 8, 4, rng)
	for i := 0; i < 8; i++ { // zero column 2
		d.W.W.Data[i*4+2] = 0
	}
	d.W.Bump()
	rng.NormalInit(d.B.W, 1)
	d.B.Bump()
	x := randomMatrix(3, 8, 73)
	dst := NewMatrix32(3, 4)
	var qs I8Scratch
	d.InferIntoI8(dst, down(x), &qs)
	for r := 0; r < 3; r++ {
		if dst.Row(r)[2] != float32(d.B.W.Data[2]) {
			t.Fatalf("zero-column output row %d = %v, want exact bias %v", r, dst.Row(r)[2], float32(d.B.W.Data[2]))
		}
	}
}
