package nn

import "math"

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
// bit-identical to Infer. dst must be x.Rows×Out and must not alias x.
func (d *Dense) InferInto(dst, x *Matrix) {
	MatMulInto(dst, x, d.W.W)
	dst.AddRowVecInPlace(d.B.W.Data)
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
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		if len(row) == 0 {
			continue
		}
		o := dst.Row(i)
		max := row[0] * scale
		for _, v := range row[1:] {
			if sv := v * scale; sv > max {
				max = sv
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v*scale - max)
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
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
