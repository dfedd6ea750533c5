package nn

// Dense is a fully connected layer computing y = x·W + b for a batch x
// with one example per row.
type Dense struct {
	W *Param // in×out weight matrix
	B *Param // 1×out bias

	x *Matrix // cached input for backprop
	// dwScratch holds xᵀ·dout between Backward calls so the weight
	// gradient stops allocating a fresh in×out matrix per step. The
	// gradient is still accumulated into W.G with the same element
	// order as before, keeping training trajectories bit-identical.
	dwScratch *Matrix

	// Packed read-only weight mirrors for the reduced-precision
	// inference tiers (pack.go); rebuilt lazily when the Param
	// versions move.
	p32 packPtr32
	pi8 packPtrI8
}

// NewDense constructs a Dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, rng *RNG) *Dense {
	d := &Dense{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	rng.XavierInit(d.W.W, in, out)
	return d
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *Matrix, train bool) *Matrix {
	d.x = x
	out := MatMul(x, d.W.W)
	out.AddRowVecInPlace(d.B.W.Data)
	return out
}

// Backward accumulates dW = xᵀ·dout and db = Σrows(dout), returning
// dx = dout·Wᵀ.
func (d *Dense) Backward(dout *Matrix) *Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.dwScratch = ReuseMatrix(d.dwScratch, d.W.W.Rows, d.W.W.Cols)
	TMatMulInto(d.dwScratch, d.x, dout)
	d.W.G.AddInPlace(d.dwScratch)
	for j, v := range dout.SumRows() {
		d.B.G.Data[j] += v
	}
	return MatMulT(dout, d.W.W)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
