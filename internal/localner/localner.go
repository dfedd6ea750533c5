// Package localner implements the Local NER phase of NER Globalizer: a
// traditional sequence tagger that processes each tweet sentence in
// isolation. A Transformer encoder (the BERTweet stand-in) produces
// token-level contextual embeddings, a token-classification head emits
// BIO labels, and the whole stack is fine-tuned end-to-end on an
// annotated training set.
//
// Its outputs — seed candidate surface forms and entity-aware token
// embeddings — feed the Global NER stage. As in the paper, Local NER
// acts as a deliberately weak labeller: locally sparse context makes
// its extractions inconsistent, which is exactly what Global NER
// corrects.
//
// Inference has one entry point, Tagger.RunBatch, over the encoder's one
// cache-free forward, transformer.Encoder.InferBatch. The precision tier
// is an argument of both — neither the tagger nor the encoder stores it.
package localner

import (
	"math"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

// Tagger is a fine-tunable BIO token tagger over a Transformer encoder.
type Tagger struct {
	enc  *transformer.Encoder
	head *nn.Dense
	opt  *nn.Adam
	rng  *nn.RNG

	// WordDropout is the probability that a token is replaced by the
	// mask token during fine-tuning. Microblog NER must label entities
	// never seen in training; masking identities forces the tagger to
	// read context instead of memorizing names — the robustness a
	// large pre-trained subword vocabulary provides implicitly.
	WordDropout float64

	// BatchTokens caps the tokens RunBatch hands the encoder in one
	// InferBatch call: contiguous sentences are packed until the
	// truncated token count would exceed it. At zero or below every
	// non-empty sentence is a call of its own. The setting changes
	// throughput only — outputs are bit-identical at every value.
	BatchTokens int
}

// NewTagger attaches a fresh classification head to the Transformer
// encoder. The optimizer covers both encoder and head, so Train
// fine-tunes end-to-end (as the paper does before freezing the encoder
// for the Global NER stage).
func NewTagger(enc *transformer.Encoder, lr float64) *Tagger {
	rng := enc.RNG().Fork()
	head := nn.NewDense("ner.head", enc.Dim(), types.NumBIOLabels, rng)
	opt := nn.NewAdam(lr)
	opt.Register(enc.Params()...)
	opt.Register(head.Params()...)
	return &Tagger{enc: enc, head: head, opt: opt, rng: rng}
}

// Encoder returns the underlying Transformer encoder (used by the
// Phrase Embedder, which consumes the same entity-aware token
// embeddings with the encoder weights frozen, by masked-LM
// pre-training and by the precision tiers' weight packing).
func (t *Tagger) Encoder() *transformer.Encoder { return t.enc }

// Dim returns the token-embedding dimensionality.
func (t *Tagger) Dim() int { return t.enc.Dim() }

// TrainEpoch fine-tunes for one shuffled pass over the annotated
// sentences and returns the mean token cross-entropy.
func (t *Tagger) TrainEpoch(sentences []*types.Sentence) float64 {
	perm := t.rng.Perm(len(sentences))
	total, count := 0.0, 0
	for _, idx := range perm {
		s := sentences[idx]
		if len(s.Tokens) == 0 {
			continue
		}
		tokens := t.enc.Truncate(s.Tokens)
		labels := types.EncodeBIO(len(tokens), s.Gold)
		targets := make([]int, len(tokens))
		for i, l := range labels {
			targets[i] = int(l)
		}
		if t.WordDropout > 0 {
			masked := make([]string, len(tokens))
			copy(masked, tokens)
			for i := range masked {
				if t.rng.Float64() < t.WordDropout {
					masked[i] = transformer.MaskToken
				}
			}
			tokens = masked
		}
		h := t.enc.Forward(tokens, true)
		logits := t.head.Forward(h, true)
		loss, dlogits := nn.SoftmaxCrossEntropy(logits, targets)
		dh := t.head.Backward(dlogits)
		t.enc.Backward(dh)
		nn.ClipGrads(t.params(), 5)
		t.opt.Step()
		total += loss
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Train runs epochs passes of fine-tuning, returning the per-epoch
// mean losses.
func (t *Tagger) Train(sentences []*types.Sentence, epochs int) []float64 {
	losses := make([]float64, 0, epochs)
	for i := 0; i < epochs; i++ {
		losses = append(losses, t.TrainEpoch(sentences))
	}
	return losses
}

func (t *Tagger) params() []*nn.Param {
	return append(t.enc.Params(), t.head.Params()...)
}

// Params returns every trainable parameter of the tagger (encoder and
// classification head), for checkpointing.
func (t *Tagger) Params() []*nn.Param { return t.params() }

// Result is the Local NER output for one sentence: the BIO labels, the
// decoded entity spans, and the final-layer entity-aware token
// embeddings (one row per surviving token after truncation).
type Result struct {
	Tokens     []string
	Labels     []types.BIOLabel
	Entities   []types.Entity
	Embeddings *nn.Matrix
}

// Run tags one sentence at tier p: a one-sentence RunBatch.
func (t *Tagger) Run(tokens []string, p nn.Precision) *Result {
	return t.RunBatch([][]string{tokens}, nil, p)[0]
}

// resultFrom decodes the classification head over already-computed
// token embeddings. The head stays f64 at every tier (an
// O(dim·labels) GEMM — negligible next to the encoder).
func (t *Tagger) resultFrom(tokens []string, h *nn.Matrix) *Result {
	logits := t.head.Infer(h)
	labels := make([]types.BIOLabel, len(tokens))
	for i := 0; i < logits.Rows; i++ {
		labels[i] = types.BIOLabel(nn.ArgMax(logits.Row(i)))
	}
	return &Result{
		Tokens:     tokens,
		Labels:     labels,
		Entities:   types.DecodeBIO(labels),
		Embeddings: h,
	}
}

// Margins returns the per-token decision margin — best head logit
// minus runner-up — over already-computed token embeddings. It is a
// diagnostic for the reduced-precision tiers: a token whose margin is
// smaller than a kernel's error bound is one a tier could flip, so the
// golden-stream equality tests print the margin distribution when a
// tier changes an annotation.
func (t *Tagger) Margins(h *nn.Matrix) []float64 {
	logits := t.head.Infer(h)
	margins := make([]float64, logits.Rows)
	for i := range margins {
		row := logits.Row(i)
		best, next := math.Inf(-1), math.Inf(-1)
		for _, v := range row {
			if v > best {
				best, next = v, best
			} else if v > next {
				next = v
			}
		}
		margins[i] = best - next
	}
	return margins
}

// packSpans splits [0, len(sentences)) into contiguous spans whose
// truncated token counts stay within BatchTokens. Every span holds at
// least one sentence, so oversized sentences still run (alone). The
// split depends only on sentence lengths and BatchTokens — never on
// the worker count — which keeps batched runs deterministic.
func (t *Tagger) packSpans(sentences [][]string) [][2]int {
	spans := make([][2]int, 0, len(sentences)/4+1)
	lo, toks := 0, 0
	for i, s := range sentences {
		T := len(t.enc.Truncate(s))
		if i > lo && toks+T > t.BatchTokens {
			spans = append(spans, [2]int{lo, i})
			lo, toks = i, 0
		}
		toks += T
	}
	if lo < len(sentences) {
		spans = append(spans, [2]int{lo, len(sentences)})
	}
	return spans
}

// RunBatch tags many sentences over the pool at precision tier p,
// returning for each its labels, decoded entities and the token
// embeddings of the same forward pass (an empty sentence yields the
// zero Result). Contiguous sentences are packed into spans of at most
// BatchTokens tokens and each worker runs one span through the
// encoder's cache-free InferBatch, so concurrent RunBatch calls on one
// trained tagger are safe (training must not run at the same time).
// Results land at the sentence's own index, and the encoder's output
// for a sentence does not depend on what it is packed with, so the
// output is identical at any worker count and any BatchTokens. A nil
// pool runs serially.
func (t *Tagger) RunBatch(sentences [][]string, pool *parallel.Pool, p nn.Precision) []*Result {
	spans := t.packSpans(sentences)
	results := make([]*Result, len(sentences))
	pool.ForEach(len(spans), func(si int) {
		lo, hi := spans[si][0], spans[si][1]
		hs := t.enc.InferBatch(sentences[lo:hi], p)
		for i := lo; i < hi; i++ {
			tokens := t.enc.Truncate(sentences[i])
			if len(tokens) == 0 {
				results[i] = &Result{}
				continue
			}
			results[i] = t.resultFrom(tokens, hs[i-lo])
		}
	})
	return results
}

// Embed returns just the entity-aware token embeddings of one sentence
// at tier p (0×Dim for an empty one), without decoding labels. Used
// when re-embedding sentences during Global NER.
func (t *Tagger) Embed(tokens []string, p nn.Precision) *nn.Matrix {
	return t.enc.InferBatch([][]string{tokens}, p)[0]
}
