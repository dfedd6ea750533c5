package nn

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

// Infer runs every layer's Infer in order. All layers of the Sequential
// must implement Inferer (Dense and ReLU do).
func (s *Sequential) Infer(x *Matrix) *Matrix {
	for _, l := range s.Layers {
		x = l.(Inferer).Infer(x)
	}
	return x
}
