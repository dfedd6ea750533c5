package nn

import "math"

// LayerNorm normalizes each row of its input to zero mean and unit
// variance, then applies a learned per-feature affine transform
// (gain γ and bias β). Used after attention and feed-forward blocks of
// the Transformer encoder.
type LayerNorm struct {
	Gamma *Param
	Beta  *Param
	Eps   float64

	xhat   *Matrix
	invStd []float64

	// p32 holds the float32 mirror of γ/β used by the reduced-precision
	// inference tiers (pack.go).
	p32 lnPackPtr32
}

// NewLayerNorm returns a LayerNorm over dim features with γ=1, β=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: NewParam(name+".gamma", 1, dim),
		Beta:  NewParam(name+".beta", 1, dim),
		Eps:   1e-5,
	}
	ln.Gamma.W.Fill(1)
	return ln
}

// Forward normalizes each row and applies the affine transform.
func (ln *LayerNorm) Forward(x *Matrix, train bool) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	ln.xhat = NewMatrix(x.Rows, x.Cols)
	ln.invStd = make([]float64, x.Rows)
	n := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= n
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+ln.Eps)
		ln.invStd[i] = inv
		xh := ln.xhat.Row(i)
		o := out.Row(i)
		for j, v := range row {
			h := (v - mean) * inv
			xh[j] = h
			o[j] = h*ln.Gamma.W.Data[j] + ln.Beta.W.Data[j]
		}
	}
	return out
}

// Backward computes gradients w.r.t. γ, β and the input.
func (ln *LayerNorm) Backward(dout *Matrix) *Matrix {
	if ln.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	dx := NewMatrix(dout.Rows, dout.Cols)
	n := float64(dout.Cols)
	for i := 0; i < dout.Rows; i++ {
		drow := dout.Row(i)
		xh := ln.xhat.Row(i)
		// Accumulate parameter grads and the two row-level sums needed
		// for the input gradient.
		sumDxhat := 0.0
		sumDxhatXhat := 0.0
		dxhat := make([]float64, dout.Cols)
		for j, dv := range drow {
			ln.Gamma.G.Data[j] += dv * xh[j]
			ln.Beta.G.Data[j] += dv
			dh := dv * ln.Gamma.W.Data[j]
			dxhat[j] = dh
			sumDxhat += dh
			sumDxhatXhat += dh * xh[j]
		}
		inv := ln.invStd[i]
		out := dx.Row(i)
		for j := range dxhat {
			out[j] = inv / n * (n*dxhat[j] - sumDxhat - xh[j]*sumDxhatXhat)
		}
	}
	return dx
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }
