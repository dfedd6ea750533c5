package baselines

import (
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// HIRE is the HIRE-NER document-level baseline (Luo et al., AAAI
// 2020): a document-scope memory stores contextual embeddings per
// unique token; at tagging time each token's local embedding queries
// the memory with similarity-weighted attention and the fused
// representation feeds the classification head. The stream is treated
// as one composite document, as the paper's evaluation does.
type HIRE struct {
	tagger *localner.Tagger
	head   *nn.Dense
	opt    *nn.Adam
	rng    *nn.RNG
	epochs int
	// Temp is the attention temperature over memory entries.
	Temp float64
	// MemCap bounds stored embeddings per token string.
	MemCap int
}

// NewHIRE builds the baseline over a fine-tuned tagger.
func NewHIRE(tagger *localner.Tagger, epochs int, lr float64, seed int64) *HIRE {
	rng := nn.NewRNG(seed)
	head := nn.NewDense("hire.head", 2*tagger.Dim(), types.NumBIOLabels, rng)
	opt := nn.NewAdam(lr)
	opt.Register(head.Params()...)
	return &HIRE{tagger: tagger, head: head, opt: opt, rng: rng, epochs: epochs, Temp: 0.2, MemCap: 24}
}

// Name implements System.
func (h *HIRE) Name() string { return "HIRE-NER" }

// Train fits the head on memory-fused features computed over the
// training document.
func (h *HIRE) Train(train []*types.Sentence) {
	mem := newTokenMemory(h.tagger.Dim(), h.MemCap)
	embs := make([]*nn.Matrix, len(train))
	for i, s := range train {
		emb := h.tagger.Embed(s.Tokens, nn.F64)
		embs[i] = emb
		for t := 0; t < emb.Rows; t++ {
			mem.add(s.Tokens[t], emb.Row(t))
		}
	}
	for epoch := 0; epoch < h.epochs; epoch++ {
		perm := h.rng.Perm(len(train))
		for _, i := range perm {
			s := train[i]
			emb := embs[i]
			if emb.Rows == 0 {
				continue
			}
			x := h.features(s.Tokens, emb, mem)
			logits := h.head.Forward(x, true)
			_, dl := nn.SoftmaxCrossEntropy(logits, goldTargets(s, emb.Rows))
			h.head.Backward(dl)
			h.opt.Step()
		}
	}
}

func (h *HIRE) features(tokens []string, emb *nn.Matrix, mem *tokenMemory) *nn.Matrix {
	d := h.tagger.Dim()
	x := nn.NewMatrix(emb.Rows, 2*d)
	for t := 0; t < emb.Rows; t++ {
		local := emb.Row(t)
		copy(x.Row(t)[:d], local)
		copy(x.Row(t)[d:], mem.attended(tokens[t], local, h.Temp))
	}
	return x
}

// Predict builds the document memory over the whole stream first (the
// document is available in full to a document-level model), then tags
// every sentence with fused features.
func (h *HIRE) Predict(sents []*types.Sentence) map[types.SentenceKey][]types.Entity {
	mem := newTokenMemory(h.tagger.Dim(), h.MemCap)
	embs := make([]*nn.Matrix, len(sents))
	for i, s := range sents {
		emb := h.tagger.Embed(s.Tokens, nn.F64)
		embs[i] = emb
		for t := 0; t < emb.Rows; t++ {
			mem.add(s.Tokens[t], emb.Row(t))
		}
	}
	out := make(map[types.SentenceKey][]types.Entity, len(sents))
	for i, s := range sents {
		emb := embs[i]
		if emb.Rows == 0 {
			out[s.Key()] = nil
			continue
		}
		x := h.features(s.Tokens, emb, mem)
		logits := h.head.Forward(x, false)
		labels := make([]types.BIOLabel, emb.Rows)
		for t := 0; t < emb.Rows; t++ {
			labels[t] = types.BIOLabel(nn.ArgMax(logits.Row(t)))
		}
		out[s.Key()] = labelsToEntities(labels)
	}
	return out
}
