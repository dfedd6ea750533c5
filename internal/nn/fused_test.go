package nn

import "testing"

// randomMatrix fills a rows×cols matrix from a seeded RNG.
func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := NewRNG(seed)
	m := NewMatrix(rows, cols)
	rng.NormalInit(m, 1)
	return m
}

func assertSameData(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s diverges at element %d: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDenseInferIntoIdentity pins InferInto to Infer bit for bit.
func TestDenseInferIntoIdentity(t *testing.T) {
	rng := NewRNG(5)
	d := NewDense("f", 16, 24, rng)
	for _, rows := range []int{1, 7, 40} {
		x := randomMatrix(rows, 16, int64(rows))
		want := d.Infer(x)
		dst := NewMatrix(rows, 24)
		d.InferInto(dst, x)
		assertSameData(t, dst, want, "Dense.InferInto")
	}
}

// TestGELUInferIntoIdentity covers both the separate-destination and
// the in-place (dst == x) forms.
func TestGELUInferIntoIdentity(t *testing.T) {
	g := NewGELU()
	x := randomMatrix(9, 13, 11)
	want := g.Forward(x, false)
	dst := NewMatrix(9, 13)
	g.InferInto(dst, x)
	assertSameData(t, dst, want, "GELU.InferInto")
	inPlace := x.Clone()
	g.InferInto(inPlace, inPlace)
	assertSameData(t, inPlace, want, "GELU.InferInto in place")
}

// TestScaledSoftmaxRowsIntoIdentity pins the fused scale+softmax to
// ScaleInPlace followed by SoftmaxRows, including the in-place form
// and zero-width rows.
func TestScaledSoftmaxRowsIntoIdentity(t *testing.T) {
	const scale = 0.35355339059327373 // 1/sqrt(8), an attention-typical value
	for _, shape := range [][2]int{{1, 1}, {6, 6}, {17, 5}, {0, 4}, {3, 0}} {
		x := randomMatrix(shape[0], shape[1], int64(shape[0]*31+shape[1]))
		ref := x.Clone()
		ref.ScaleInPlace(scale)
		want := SoftmaxRows(ref)
		dst := NewMatrix(shape[0], shape[1])
		ScaledSoftmaxRowsInto(dst, x, scale)
		assertSameData(t, dst, want, "ScaledSoftmaxRowsInto")
		inPlace := x.Clone()
		ScaledSoftmaxRowsInto(inPlace, inPlace, scale)
		assertSameData(t, inPlace, want, "ScaledSoftmaxRowsInto in place")
	}
}

// TestLayerNormInferResidualIntoIdentity pins the fused residual+norm
// to AddInPlace followed by Forward(x, false).
func TestLayerNormInferResidualIntoIdentity(t *testing.T) {
	ln := NewLayerNorm("f", 12)
	// Perturb gamma/beta so the affine step actually participates.
	rng := NewRNG(17)
	rng.NormalInit(ln.Gamma.W, 0.3)
	rng.NormalInit(ln.Beta.W, 0.3)
	for _, rows := range []int{1, 5, 23} {
		x := randomMatrix(rows, 12, int64(rows)+100)
		res := randomMatrix(rows, 12, int64(rows)+200)
		ref := x.Clone()
		ref.AddInPlace(res)
		want := ln.Forward(ref, false)
		dst := NewMatrix(rows, 12)
		ln.InferResidualInto(dst, x, res)
		assertSameData(t, dst, want, "LayerNorm.InferResidualInto")
	}
}
