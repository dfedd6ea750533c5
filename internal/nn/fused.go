package nn

import (
	"fmt"
	"math"
	"sync"
)

// Fused inference kernels. The transformer inference path
// (internal/transformer, InferBatch) packs many sentences into one
// flat token matrix and runs every position-independent layer as a
// single pass over the packed rows. These kernels are its substrate:
// each one writes into caller-owned scratch and fuses the operation
// pairs the training forward performs back to back (dense + bias,
// scale + softmax, residual-add + layer-norm), so steady-state
// inference allocates nothing.
//
// The contract shared with the rest of the package: every fused kernel
// is bit-identical to the Forward(x, false) sequence it replaces. Each
// output element is computed by the same floating-point operations in
// the same order — fusion removes intermediate storage, never
// roundings.

// InferInto computes dst = x·W + b without caching backprop state,
// bit-identical to MatMulInto followed by AddRowVecInPlace: the kernel
// adds the bias in its final store. dst must be x.Rows×Out and must not
// alias x.
func (d *Dense) InferInto(dst, x *Matrix) {
	matMulBiasInto(dst, x, d.W.W, d.B.W.Data)
}

// InferInto applies the tanh-approximated GELU element-wise into dst,
// bit-identical to Forward(x, false). dst must share x's shape; dst == x is
// allowed (each element is read before it is written).
func (g *GELU) InferInto(dst, x *Matrix) {
	x.mustSameShape(dst)
	kernels().gelu64(dst.Data, x.Data)
}

// ScaledSoftmaxRowsInto fuses x.ScaleInPlace(scale) followed by
// SoftmaxRows(x) into one pass, writing the row-wise softmax of
// scale·x into dst without mutating x. Each scaled logit is the same
// single multiplication the unfused pair performs, so the output is
// bit-identical. dst must share x's shape; dst == x is allowed.
func ScaledSoftmaxRowsInto(dst, x *Matrix, scale float64) {
	x.mustSameShape(dst)
	if x.Cols > 0 {
		softmaxRows64(kernels(), dst.Data, x.Data, x.Cols, scale)
	}
}

// softmaxRows64 writes the softmax of scale·row into dst for each row
// of cols elements of x (dst may alias x). Per row: the max of the
// scaled logits, the dispatched exp pass, the sum in ascending j (that
// order defines the bits), then one division per element. The passes
// run over all rows at once — one exp call, and the row sums
// accumulated side by side — so no row waits on the previous row's
// latency chain.
func softmaxRows64(ks *kernelSet, dst, x []float64, cols int, scale float64) {
	rows := len(x) / cols
	buf := softmaxStats.Get().(*[]float64)
	if cap(*buf) < 2*rows {
		*buf = make([]float64, 2*rows)
	}
	maxs, sums := (*buf)[:rows], (*buf)[rows:2*rows]
	for r := range maxs {
		row := x[r*cols : r*cols+cols]
		m := row[0] * scale
		for _, v := range row[1:] {
			if sv := v * scale; sv > m {
				m = sv
			}
		}
		maxs[r] = m
	}
	ks.exp64(dst[:len(x)], x, cols, scale, maxs)
	clear(sums)
	for j := 0; j < cols; j++ {
		for r := range sums {
			sums[r] += dst[r*cols+j]
		}
	}
	for r, sum := range sums {
		o := dst[r*cols : r*cols+cols]
		for j := range o {
			o[j] /= sum
		}
	}
	softmaxStats.Put(buf)
}

// softmaxStats recycles softmaxRows64's per-row maxima and sums (a
// stack array would escape through the dispatched exp64 call).
var softmaxStats = sync.Pool{New: func() any { return new([]float64) }}

// AttentionHeadInto runs one head of scaled dot-product attention over
// one segment of packed token planes, in place: with q, k, v and out
// sharing one shape, it reads rows [row, row+T) and columns
// [col, col+dh) of q, k and v and writes
// softmax(scale·q_h·k_hᵀ)·v_h into the same block of out. scores is a
// T×T scratch. No head is copied out of its plane: the kernels walk the
// strided views directly. The result is bit-identical to copying the
// head out, MatMulTInto, ScaledSoftmaxRowsInto, MatMulInto, and adding
// the product into a zeroed out: the combine's accumulators start at
// +0 and so never hold −0, which makes that +0 + x store the identity.
func AttentionHeadInto(out, q, k, v, scores *Matrix, row, T, col, dh int, scale float64) {
	q.mustSameShape(k)
	q.mustSameShape(v)
	q.mustSameShape(out)
	if row < 0 || T < 0 || row+T > q.Rows || col < 0 || dh < 0 || col+dh > q.Cols {
		panic(fmt.Sprintf("nn: attention head rows [%d,%d) cols [%d,%d) outside %dx%d planes",
			row, row+T, col, col+dh, q.Rows, q.Cols))
	}
	if scores.Rows != T || scores.Cols != T {
		panic(fmt.Sprintf("nn: attention scores %dx%d, want %dx%d", scores.Rows, scores.Cols, T, T))
	}
	if T == 0 || dh == 0 {
		return
	}
	ks := kernels()
	ld := q.Cols
	off := row*ld + col
	ks.mmT64(scores.Data, q.Data[off:], k.Data[off:], T, T, dh, T, ld, ld)
	softmaxRows64(ks, scores.Data, scores.Data, T, scale)
	ks.mm64(out.Data[off:], scores.Data, v.Data[off:], nil, T, dh, T, ld, T, ld)
}

// InferResidualInto fuses the residual add into the normalization:
// dst = LayerNorm(x + res), bit-identical to x.AddInPlace(res)
// followed by ln.Forward(x, false) (each sum is the same single addition; the
// row statistics then see identical values). All three matrices must
// share one shape; dst must not alias x or res.
func (ln *LayerNorm) InferResidualInto(dst, x, res *Matrix) {
	x.mustSameShape(res)
	x.mustSameShape(dst)
	n := float64(x.Cols)
	gamma := ln.Gamma.W.Data
	beta := ln.Beta.W.Data
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		rrow := res.Row(i)
		o := dst.Row(i)
		mean := 0.0
		for j, v := range xrow {
			s := v + rrow[j]
			o[j] = s
			mean += s
		}
		mean /= n
		variance := 0.0
		for _, v := range o {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+ln.Eps)
		for j, v := range o {
			o[j] = (v-mean)*inv*gamma[j] + beta[j]
		}
	}
}
