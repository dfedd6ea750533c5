// Package phrase implements the Entity Phrase Embedder of Global NER
// (Section V-B): it combines the entity-aware token embeddings of a
// mention phrase into one fixed-size local mention embedding via
// average pooling (eq. 1), l2 normalization (eq. 2), and a trainable
// dense layer (eq. 3).
//
// The dense layer is trained with supervised contrastive estimation —
// triplet loss (eq. 4) or soft nearest-neighbour loss (eq. 5) — so that
// mentions of the same candidate type congregate in the embedding
// space while mentions of other types (including same-surface-form
// impostors) are pushed towards orthogonality. As in the paper, the
// gradient stops at the Local NER encoder: only the embedder's own
// dense layer trains.
package phrase

import (
	"sync"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// Pool implements eqs. (1)–(2): the mean of the token embeddings over
// the mention span, l2-normalized. tokenEmb is the T×d entity-aware
// embedding matrix of the containing sentence. Spans outside the
// matrix (possible after encoder truncation) are clipped; a fully
// truncated span yields a zero vector.
func Pool(tokenEmb *nn.Matrix, span types.Span) []float64 {
	return PoolInto(make([]float64, tokenEmb.Cols), tokenEmb, span)
}

// PoolInto is Pool writing into dst (which must have length
// tokenEmb.Cols), so hot paths can reuse one scratch vector per mention
// instead of allocating two. It returns dst, fully overwritten and
// normalized in place.
func PoolInto(dst []float64, tokenEmb *nn.Matrix, span types.Span) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	start, end := span.Start, span.End
	if start < 0 {
		start = 0
	}
	if end > tokenEmb.Rows {
		end = tokenEmb.Rows
	}
	if start >= end {
		return dst
	}
	for i := start; i < end; i++ {
		nn.AddScaled(dst, tokenEmb.Row(i), 1)
	}
	nn.Scale(dst, 1/float64(end-start))
	// l2-normalize in place (eq. 2), dividing exactly as nn.Normalize
	// does so the result is bit-identical, zero-vector guard included.
	if n := nn.L2Norm(dst); n >= 1e-12 {
		for i := range dst {
			dst[i] /= n
		}
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return dst
}

// Embedder maps pooled mention vectors to the final local mention
// embedding space through the trainable dense layer of eq. (3). The
// layer runs in f64 at every inference precision tier: it is one
// dim×dim GEMM on a 1×dim activation, too little work for a reduced
// kernel to repay (DESIGN.md "Precision tiers" has the measurement),
// while its output feeds the cluster-threshold comparisons directly.
type Embedder struct {
	dense *nn.Dense
	dim   int
	// scratch pools the eq. (1)–(2) intermediate vector of Embed, which
	// is consumed by the dense forward and never escapes. sync.Pool keeps
	// the hot path allocation-free under the concurrent per-surface
	// fan-out without serializing it.
	scratch sync.Pool
}

// NewEmbedder creates an Embedder for d-dimensional token embeddings.
func NewEmbedder(dim int, seed int64) *Embedder {
	rng := nn.NewRNG(seed)
	e := &Embedder{dense: nn.NewDense("phrase.ff", dim, dim, rng), dim: dim}
	e.scratch.New = func() any {
		buf := make([]float64, dim)
		return &buf
	}
	return e
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Params returns the Embedder's trainable parameters, for
// checkpointing.
func (e *Embedder) Params() []*nn.Param { return e.dense.Params() }

// EmbedPooled applies the dense layer to an already pooled-and-
// normalized vector, producing the local mention embedding. It uses the
// cache-free inference path, so concurrent calls are safe.
func (e *Embedder) EmbedPooled(pooled []float64) []float64 {
	x := nn.Matrix{Rows: 1, Cols: len(pooled), Data: pooled}
	out := nn.Matrix{Rows: 1, Cols: e.dense.W.W.Cols}
	out.Data = make([]float64, out.Cols)
	e.dense.InferInto(&out, &x)
	return out.Data
}

// Embed runs the full eqs. (1)–(3) path for one mention span. The
// pooled intermediate lives in a reusable scratch buffer; only the
// final embedding is allocated.
func (e *Embedder) Embed(tokenEmb *nn.Matrix, span types.Span) []float64 {
	buf := e.scratch.Get().(*[]float64)
	out := e.EmbedPooled(PoolInto(*buf, tokenEmb, span))
	e.scratch.Put(buf)
	return out
}

// EmbedBatch embeds many pooled vectors in one matrix pass.
func (e *Embedder) EmbedBatch(pooled [][]float64) [][]float64 {
	if len(pooled) == 0 {
		return nil
	}
	out := e.dense.Infer(nn.FromRows(pooled))
	res := make([][]float64, out.Rows)
	for i := range res {
		res[i] = append([]float64(nil), out.Row(i)...)
	}
	return res
}
