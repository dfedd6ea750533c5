package nn

import "math"

// Inference path. Layer.Forward caches activations for backprop even
// with train=false (Dense stores its input, LayerNorm its normalized
// rows, and so on), so a shared model cannot run Forward from several
// goroutines at once. Infer is the concurrency-safe sibling: it
// computes the identical output while writing no layer state, which is
// what lets the pipeline shard per-tweet forwards across a worker pool
// over one set of weights.
//
// The contract: for every layer, Infer(x) returns the same values as
// Forward(x, false); Backward after Infer is invalid (there is nothing
// cached to differentiate).

// Inferer is a layer with a cache-free, concurrency-safe forward pass.
// All layers in this package implement it.
type Inferer interface {
	Infer(x *Matrix) *Matrix
}

// Infer computes x·W + b without caching the input for backprop.
func (d *Dense) Infer(x *Matrix) *Matrix {
	out := MatMul(x, d.W.W)
	out.AddRowVecInPlace(d.B.W.Data)
	return out
}

// Infer clamps negative inputs to zero without recording the mask.
func (r *ReLU) Infer(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Infer applies the tanh-approximated GELU without caching the input.
func (g *GELU) Infer(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
	return out
}

// Infer is the identity: dropout only acts during training.
func (d *Dropout) Infer(x *Matrix) *Matrix { return x }

// Infer normalizes each row and applies the affine transform without
// caching normalization state.
func (ln *LayerNorm) Infer(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, x.Cols)
	n := float64(x.Cols)
	gamma := ln.Gamma.W.Data
	beta := ln.Beta.W.Data
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
		o := out.Row(i)
		for j, v := range row {
			o[j] = (v-mean)*inv*gamma[j] + beta[j]
		}
	}
	return out
}

// Infer runs every layer's Infer in order. All layers of a Sequential
// must implement Inferer (every layer in this package does).
func (s *Sequential) Infer(x *Matrix) *Matrix {
	for _, l := range s.Layers {
		x = l.(Inferer).Infer(x)
	}
	return x
}
