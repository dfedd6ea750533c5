package rnn

import (
	"nerglobalizer/internal/nn"
)

// Inference path. Forward caches hash indices and per-timestep cell
// states on the Encoder for BPTT, so a shared encoder cannot run
// Forward concurrently. InferBatch computes the identical output with
// no writes to encoder state: gruCell.step is already pure (it touches
// only its returned cellState), so only the embedding and state
// bookkeeping need cache-free variants.

// embedInfer builds per-token input vectors without caching indices.
func (e *Encoder) embedInfer(tokens []string) *nn.Matrix {
	T := len(tokens)
	x := nn.NewMatrix(T, e.cfg.Dim)
	for i, tok := range tokens {
		row := x.Row(i)
		copy(row, e.tok.W.Row(bucket(tok, e.cfg.VocabBuckets)))
		cbs := charBuckets(tok, e.cfg.CharBuckets)
		inv := 1 / float64(len(cbs))
		for _, cb := range cbs {
			nn.AddScaled(row, e.chr.W.Row(cb), inv)
		}
		for _, f := range orthoFeats(tok) {
			nn.AddScaled(row, e.ort.W.Row(f), 1)
		}
	}
	return x
}

// InferBatch encodes every sentence of batch into a T×Dim matrix equal
// to Forward(tokens, false) bit for bit, writing no encoder state. A
// recurrence has nothing to pack, so the batch is a loop, and the BiGRU
// has only the exact path: p is ignored (core.Globalizer.SetPrecision
// refuses a reduced tier for this encoder). Concurrent calls on one
// Encoder are safe; training must not run at the same time.
func (e *Encoder) InferBatch(batch [][]string, p nn.Precision) []*nn.Matrix {
	out := make([]*nn.Matrix, len(batch))
	for i, tokens := range batch {
		out[i] = e.infer(tokens)
	}
	return out
}

func (e *Encoder) infer(tokens []string) *nn.Matrix {
	tokens = e.Truncate(tokens)
	T := len(tokens)
	x := e.embedInfer(tokens)
	half := e.cfg.Dim / 2
	out := nn.NewMatrix(T, e.cfg.Dim)
	h := make([]float64, half)
	for t := 0; t < T; t++ {
		st := e.fwd.step(x.Row(t), h)
		h = st.h
		copy(out.Row(t)[:half], st.h)
	}
	h = make([]float64, half)
	for t := T - 1; t >= 0; t-- {
		st := e.bwd.step(x.Row(t), h)
		h = st.h
		copy(out.Row(t)[half:], st.h)
	}
	return out
}
