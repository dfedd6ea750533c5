package transformer

import (
	"math"

	"nerglobalizer/internal/nn"
)

// multiHeadAttention is bidirectional (unmasked) scaled dot-product
// self-attention with Heads heads, as in the original Transformer
// encoder. It operates on one sequence at a time: the input is a
// T×Dim matrix of token states.
type multiHeadAttention struct {
	cfg Config
	wq  *nn.Dense
	wk  *nn.Dense
	wv  *nn.Dense
	wo  *nn.Dense

	// Cached forward state for backprop.
	q, k, v *nn.Matrix
	attn    []*nn.Matrix // per-head T×T softmax weights
	concat  *nn.Matrix

	// Training-path scratch, reused across Forward/Backward calls so the
	// per-head intermediates stop allocating. Values are unchanged — only
	// the backing storage is recycled. The concurrency-safe InferBatch
	// path never touches these.
	scores, qhS, khS, vhS, ohS *nn.Matrix
	dAttnS, dScoresS           *nn.Matrix
	dOhS, dVhS, dQhS, dKhS     *nn.Matrix
	bqhS, bkhS, bvhS           *nn.Matrix
}

func newMultiHeadAttention(name string, cfg Config, rng *nn.RNG) *multiHeadAttention {
	return &multiHeadAttention{
		cfg: cfg,
		wq:  nn.NewDense(name+".wq", cfg.Dim, cfg.Dim, rng),
		wk:  nn.NewDense(name+".wk", cfg.Dim, cfg.Dim, rng),
		wv:  nn.NewDense(name+".wv", cfg.Dim, cfg.Dim, rng),
		wo:  nn.NewDense(name+".wo", cfg.Dim, cfg.Dim, rng),
	}
}

// headSliceInto fills dst with the T×dh submatrix of m for head h.
func (a *multiHeadAttention) headSliceInto(dst, m *nn.Matrix, h int) *nn.Matrix {
	dh := a.cfg.Dim / a.cfg.Heads
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[h*dh:(h+1)*dh])
	}
	return dst
}

// headStore adds src (T×dh) into the head-h columns of dst (T×Dim).
func (a *multiHeadAttention) headStore(dst, src *nn.Matrix, h int) {
	dh := a.cfg.Dim / a.cfg.Heads
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(i)[h*dh : (h+1)*dh]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}

func (a *multiHeadAttention) Forward(x *nn.Matrix, train bool) *nn.Matrix {
	a.q = a.wq.Forward(x, train)
	a.k = a.wk.Forward(x, train)
	a.v = a.wv.Forward(x, train)
	T := x.Rows
	dh := a.cfg.Dim / a.cfg.Heads
	invSqrt := 1 / math.Sqrt(float64(dh))
	a.attn = make([]*nn.Matrix, a.cfg.Heads)
	a.concat = nn.NewMatrix(T, a.cfg.Dim)
	a.qhS = nn.ReuseMatrix(a.qhS, T, dh)
	a.khS = nn.ReuseMatrix(a.khS, T, dh)
	a.vhS = nn.ReuseMatrix(a.vhS, T, dh)
	a.ohS = nn.ReuseMatrix(a.ohS, T, dh)
	a.scores = nn.ReuseMatrix(a.scores, T, T)
	for h := 0; h < a.cfg.Heads; h++ {
		qh := a.headSliceInto(a.qhS, a.q, h)
		kh := a.headSliceInto(a.khS, a.k, h)
		vh := a.headSliceInto(a.vhS, a.v, h)
		nn.MatMulTInto(a.scores, qh, kh)
		a.scores.ScaleInPlace(invSqrt)
		attn := nn.SoftmaxRows(a.scores)
		a.attn[h] = attn
		nn.MatMulInto(a.ohS, attn, vh)
		a.headStore(a.concat, a.ohS, h)
	}
	return a.wo.Forward(a.concat, train)
}

func (a *multiHeadAttention) Backward(dout *nn.Matrix) *nn.Matrix {
	if a.concat == nil {
		panic("transformer: attention backward before forward")
	}
	dConcat := a.wo.Backward(dout)
	T := dConcat.Rows
	dh := a.cfg.Dim / a.cfg.Heads
	invSqrt := 1 / math.Sqrt(float64(dh))
	dq := nn.NewMatrix(T, a.cfg.Dim)
	dk := nn.NewMatrix(T, a.cfg.Dim)
	dv := nn.NewMatrix(T, a.cfg.Dim)
	a.dOhS = nn.ReuseMatrix(a.dOhS, T, dh)
	a.bqhS = nn.ReuseMatrix(a.bqhS, T, dh)
	a.bkhS = nn.ReuseMatrix(a.bkhS, T, dh)
	a.bvhS = nn.ReuseMatrix(a.bvhS, T, dh)
	a.dVhS = nn.ReuseMatrix(a.dVhS, T, dh)
	a.dQhS = nn.ReuseMatrix(a.dQhS, T, dh)
	a.dKhS = nn.ReuseMatrix(a.dKhS, T, dh)
	a.dAttnS = nn.ReuseMatrix(a.dAttnS, T, T)
	a.dScoresS = nn.ReuseMatrix(a.dScoresS, T, T)
	for h := 0; h < a.cfg.Heads; h++ {
		dOh := a.headSliceInto(a.dOhS, dConcat, h)
		attn := a.attn[h]
		qh := a.headSliceInto(a.bqhS, a.q, h)
		kh := a.headSliceInto(a.bkhS, a.k, h)
		vh := a.headSliceInto(a.bvhS, a.v, h)
		// dVh = attnᵀ · dOh; dAttn = dOh · Vhᵀ.
		dVh := a.dVhS
		nn.TMatMulInto(dVh, attn, dOh)
		dAttn := a.dAttnS
		nn.MatMulTInto(dAttn, dOh, vh)
		// Softmax backward per row: dS = A ⊙ (dA − Σ_j dA_j·A_j).
		dScores := a.dScoresS
		for i := 0; i < T; i++ {
			arow := attn.Row(i)
			darow := dAttn.Row(i)
			dsrow := dScores.Row(i)
			dotSum := nn.Dot(arow, darow)
			for j := range dsrow {
				dsrow[j] = arow[j] * (darow[j] - dotSum)
			}
		}
		dScores.ScaleInPlace(invSqrt)
		// dQh = dScores · Kh; dKh = dScoresᵀ · Qh.
		dQh := a.dQhS
		nn.MatMulInto(dQh, dScores, kh)
		dKh := a.dKhS
		nn.TMatMulInto(dKh, dScores, qh)
		a.headStore(dq, dQh, h)
		a.headStore(dk, dKh, h)
		a.headStore(dv, dVh, h)
	}
	dx := a.wq.Backward(dq)
	dx.AddInPlace(a.wk.Backward(dk))
	dx.AddInPlace(a.wv.Backward(dv))
	return dx
}

func (a *multiHeadAttention) Params() []*nn.Param {
	var ps []*nn.Param
	for _, d := range []*nn.Dense{a.wq, a.wk, a.wv, a.wo} {
		ps = append(ps, d.Params()...)
	}
	return ps
}
