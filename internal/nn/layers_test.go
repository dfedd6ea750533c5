package nn

import (
	"math"
	"testing"
)

// checkLayerGradients runs a generic finite-difference gradient check
// on a layer: it verifies both the input gradient and every parameter
// gradient against numeric estimates of a scalar pseudo-loss
// L = Σ c_ij · out_ij with fixed random coefficients c.
func checkLayerGradients(t *testing.T, layer Layer, rows, cols int, seed int64, tol float64) {
	t.Helper()
	rng := NewRNG(seed)
	x := NewMatrix(rows, cols)
	rng.NormalInit(x, 1)
	coeff := NewMatrix(0, 0)

	lossFn := func() float64 {
		out := layer.Forward(x.Clone(), true)
		if coeff.Rows != out.Rows || coeff.Cols != out.Cols {
			coeff = NewMatrix(out.Rows, out.Cols)
			crng := NewRNG(seed + 1)
			crng.NormalInit(coeff, 1)
		}
		s := 0.0
		for i, v := range out.Data {
			s += coeff.Data[i] * v
		}
		return s
	}

	// Analytic pass.
	lossFn()
	ZeroGrads(layer.Params())
	dx := layer.Backward(coeff.Clone())

	numDX := NumericGrad(lossFn, x.Data, 1e-5)
	if d := MaxGradDiff(dx.Data, numDX); d > tol {
		t.Fatalf("input gradient mismatch: max diff %g > %g", d, tol)
	}
	for _, p := range layer.Params() {
		analytic := append([]float64(nil), p.G.Data...)
		num := NumericGrad(lossFn, p.W.Data, 1e-5)
		if d := MaxGradDiff(analytic, num); d > tol {
			t.Fatalf("param %s gradient mismatch: max diff %g > %g", p.Name, d, tol)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := NewRNG(11)
	checkLayerGradients(t, NewDense("d", 4, 3, rng), 5, 4, 21, 1e-6)
}

func TestDenseForwardKnown(t *testing.T) {
	rng := NewRNG(1)
	d := NewDense("d", 2, 2, rng)
	copy(d.W.W.Data, []float64{1, 2, 3, 4})
	copy(d.B.W.Data, []float64{10, 20})
	out := d.Forward(FromRows([][]float64{{1, 1}}), false)
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("Dense forward = %v", out.Data)
	}
}

func TestReLUGradients(t *testing.T) {
	checkLayerGradients(t, NewReLU(), 4, 6, 31, 1e-6)
}

func TestReLUForward(t *testing.T) {
	out := NewReLU().Forward(FromRows([][]float64{{-1, 0, 2}}), false)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 || out.At(0, 2) != 2 {
		t.Fatalf("ReLU forward = %v", out.Data)
	}
}

func TestGELUGradients(t *testing.T) {
	checkLayerGradients(t, NewGELU(), 4, 6, 51, 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	checkLayerGradients(t, NewLayerNorm("ln", 6), 4, 6, 61, 1e-5)
}

func TestLayerNormNormalizesRows(t *testing.T) {
	ln := NewLayerNorm("ln", 4)
	out := ln.Forward(FromRows([][]float64{{1, 2, 3, 4}}), false)
	mean := 0.0
	for _, v := range out.Row(0) {
		mean += v
	}
	mean /= 4
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("LayerNorm output mean = %v, want ~0", mean)
	}
}

func TestDropoutTrainAndEval(t *testing.T) {
	rng := NewRNG(9)
	d := NewDropout(0.5, rng)
	x := NewMatrix(10, 10)
	x.Fill(1)
	out := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatalf("dropout should both keep and drop: zeros=%d twos=%d", zeros, twos)
	}
	eval := d.Forward(x, false)
	for _, v := range eval.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
}

func TestDropoutBackwardMasksGradient(t *testing.T) {
	rng := NewRNG(10)
	d := NewDropout(0.5, rng)
	x := NewMatrix(4, 4)
	x.Fill(1)
	out := d.Forward(x, true)
	dout := NewMatrix(4, 4)
	dout.Fill(1)
	dx := d.Backward(dout)
	for i := range out.Data {
		if (out.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("gradient mask must match forward mask")
		}
	}
}

func TestSequentialComposesAndBackprops(t *testing.T) {
	rng := NewRNG(12)
	seq := NewSequential(
		NewDense("l1", 3, 5, rng),
		NewReLU(),
		NewDense("l2", 5, 2, rng),
	)
	if len(seq.Params()) != 4 {
		t.Fatalf("Params count = %d, want 4", len(seq.Params()))
	}
	checkLayerGradients(t, seq, 4, 3, 81, 1e-5)
}

func TestClipGrads(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if g := math.Sqrt(p.G.Data[0]*p.G.Data[0] + p.G.Data[1]*p.G.Data[1]); math.Abs(g-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", g)
	}
}
