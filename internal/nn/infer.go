package nn

import "math"

// Inference path. Layer.Forward caches activations for backprop even
// with train=false (Dense stores its input, LayerNorm its normalized
// rows, and so on), so a shared model cannot run Forward from several
// goroutines at once. Infer is the concurrency-safe sibling: it
// computes the identical output while writing no layer state, which is
// what lets the pipeline share one set of weights across a worker
// pool. The allocating form here serves the small heads (tagger head,
// Phrase Embedder, classifier MLP); the encoder's layers run through
// the caller-owned-destination Into kernels in fused.go.
//
// The contract: for every layer, Infer(x) returns the same values as
// Forward(x, false); Backward after Infer is invalid (there is nothing
// cached to differentiate).

// Inferer is a layer with a cache-free, concurrency-safe forward pass.
type Inferer interface {
	Infer(x *Matrix) *Matrix
}

// Infer computes x·W + b without caching the input for backprop.
func (d *Dense) Infer(x *Matrix) *Matrix {
	out := NewMatrix(x.Rows, d.W.W.Cols)
	d.InferInto(out, x)
	return out
}

// Infer clamps negative inputs to zero without recording the mask.
func (r *ReLU) Infer(x *Matrix) *Matrix {
	out := x.Clone()
	ReLUInPlace(out.Data)
	return out
}

// ReLUInPlace sets every element of x that is not > 0 to +0 — −0 and
// NaN included — exactly as ReLU.Forward and ReLU.Infer write them. It
// decides on the bits, so the select compiles without a branch (a
// hidden layer's signs are a coin flip to the branch predictor): v > 0
// exactly when its bits minus one stay below +Inf's, which fails for +0
// (the subtraction wraps), every negative (sign bit set) and every NaN.
func ReLUInPlace(x []float64) {
	for i, v := range x {
		b := math.Float64bits(v)
		if b-1 >= 0x7ff0000000000000 {
			b = 0
		}
		x[i] = math.Float64frombits(b)
	}
}

// Infer runs every layer's Infer in order. All layers of the Sequential
// must implement Inferer (Dense and ReLU do).
func (s *Sequential) Infer(x *Matrix) *Matrix {
	for _, l := range s.Layers {
		x = l.(Inferer).Infer(x)
	}
	return x
}
