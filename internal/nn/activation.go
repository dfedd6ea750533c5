package nn

import "math"

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	mask *Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negative inputs to zero.
func (r *ReLU) Forward(x *Matrix, train bool) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	r.mask = NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask.Data[i] = 1
		}
	}
	return out
}

// Backward zeroes the gradient where the input was negative.
func (r *ReLU) Backward(dout *Matrix) *Matrix {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	dx := dout.Clone()
	dx.MulElemInPlace(r.mask)
	return dx
}

// Params returns nil: ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

// GELU is the Gaussian error linear unit used inside Transformer
// feed-forward blocks, in its tanh approximation.
type GELU struct {
	x *Matrix
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

const geluC = 0.7978845608028654 // sqrt(2/π)

// Forward applies the tanh-approximated GELU element-wise.
func (g *GELU) Forward(x *Matrix, train bool) *Matrix {
	g.x = x
	out := NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
	return out
}

// Backward applies the analytic derivative of the tanh approximation.
func (g *GELU) Backward(dout *Matrix) *Matrix {
	if g.x == nil {
		panic("nn: GELU.Backward before Forward")
	}
	dx := NewMatrix(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		x := g.x.Data[i]
		u := geluC * (x + 0.044715*x*x*x)
		t := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*x*x)
		dx.Data[i] = v * (0.5*(1+t) + 0.5*x*(1-t*t)*du)
	}
	return dx
}

// Params returns nil: GELU has no trainable parameters.
func (g *GELU) Params() []*Param { return nil }

// SoftmaxRows applies a numerically stable softmax to each row of x,
// returning a new matrix. It is a pure function (no backprop state);
// losses that need softmax gradients fuse them analytically.
func SoftmaxRows(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), Softmax(x.Row(i)))
	}
	return out
}
