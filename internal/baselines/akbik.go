package baselines

import (
	"strings"

	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// tokenMemory is a per-token-string memory of contextual embeddings,
// the core device of the Akbik et al. and HIRE-NER baselines. It keeps
// a running mean and up to cap raw embeddings per token.
type tokenMemory struct {
	dim   int
	cap   int
	mean  map[string][]float64
	count map[string]int
	raw   map[string][][]float64
}

func newTokenMemory(dim, cap_ int) *tokenMemory {
	return &tokenMemory{
		dim:   dim,
		cap:   cap_,
		mean:  make(map[string][]float64),
		count: make(map[string]int),
		raw:   make(map[string][][]float64),
	}
}

func (m *tokenMemory) add(tok string, emb []float64) {
	k := strings.ToLower(tok)
	mu, ok := m.mean[k]
	if !ok {
		mu = make([]float64, m.dim)
		m.mean[k] = mu
	}
	m.count[k]++
	inv := 1 / float64(m.count[k])
	for i, v := range emb {
		mu[i] += (v - mu[i]) * inv
	}
	if len(m.raw[k]) < m.cap {
		m.raw[k] = append(m.raw[k], append([]float64(nil), emb...))
	}
}

// pooledMean returns the running mean embedding of the token (zeros if
// unseen).
func (m *tokenMemory) pooledMean(tok string) []float64 {
	if mu, ok := m.mean[strings.ToLower(tok)]; ok {
		return mu
	}
	return make([]float64, m.dim)
}

// attended returns a similarity-weighted mixture of the stored raw
// embeddings (HIRE-style key-value attention with the local embedding
// as query).
func (m *tokenMemory) attended(tok string, query []float64, temp float64) []float64 {
	raws := m.raw[strings.ToLower(tok)]
	if len(raws) == 0 {
		return make([]float64, m.dim)
	}
	scores := make([]float64, len(raws))
	for i, r := range raws {
		scores[i] = nn.CosineSimilarity(query, r) / temp
	}
	w := nn.Softmax(scores)
	out := make([]float64, m.dim)
	for i, r := range raws {
		nn.AddScaled(out, r, w[i])
	}
	return out
}

// Akbik is the pooled contextualized embeddings baseline (Akbik et
// al., NAACL 2019): every token's local embedding is concatenated with
// the mean of all contextual embeddings previously seen for the same
// token string, and a token-classification head labels the pair. The
// memory accumulates over the evaluation stream, as in the original
// "evolving" pooling.
type Akbik struct {
	tagger *localner.Tagger
	head   *nn.Dense
	opt    *nn.Adam
	rng    *nn.RNG
	epochs int
}

// NewAkbik builds the baseline over an already fine-tuned Local NER
// tagger (it reuses the tagger's encoder as its embedding source, as
// the original reuses its pre-trained flair embeddings).
func NewAkbik(tagger *localner.Tagger, epochs int, lr float64, seed int64) *Akbik {
	rng := nn.NewRNG(seed)
	head := nn.NewDense("akbik.head", 2*tagger.Dim(), types.NumBIOLabels, rng)
	opt := nn.NewAdam(lr)
	opt.Register(head.Params()...)
	return &Akbik{tagger: tagger, head: head, opt: opt, rng: rng, epochs: epochs}
}

// Name implements System.
func (a *Akbik) Name() string { return "Akbik et al." }

// Train fits the classification head on concatenated local+pooled
// features, with the memory built from the training set itself.
func (a *Akbik) Train(train []*types.Sentence) {
	mem := newTokenMemory(a.tagger.Dim(), 1)
	embs := make([]*nn.Matrix, len(train))
	for i, s := range train {
		emb := a.tagger.Embed(s.Tokens, nn.F64)
		embs[i] = emb
		for t := 0; t < emb.Rows; t++ {
			mem.add(s.Tokens[t], emb.Row(t))
		}
	}
	for epoch := 0; epoch < a.epochs; epoch++ {
		perm := a.rng.Perm(len(train))
		for _, i := range perm {
			s := train[i]
			emb := embs[i]
			if emb.Rows == 0 {
				continue
			}
			x := a.features(s.Tokens, emb, mem)
			logits := a.head.Forward(x, true)
			_, dl := nn.SoftmaxCrossEntropy(logits, goldTargets(s, emb.Rows))
			a.head.Backward(dl)
			a.opt.Step()
		}
	}
}

// features builds the [local ‖ pooled] token feature matrix.
func (a *Akbik) features(tokens []string, emb *nn.Matrix, mem *tokenMemory) *nn.Matrix {
	d := a.tagger.Dim()
	x := nn.NewMatrix(emb.Rows, 2*d)
	for t := 0; t < emb.Rows; t++ {
		copy(x.Row(t)[:d], emb.Row(t))
		copy(x.Row(t)[d:], mem.pooledMean(tokens[t]))
	}
	return x
}

// Predict labels the stream, updating the pooled memory as it goes.
func (a *Akbik) Predict(sents []*types.Sentence) map[types.SentenceKey][]types.Entity {
	mem := newTokenMemory(a.tagger.Dim(), 1)
	out := make(map[types.SentenceKey][]types.Entity, len(sents))
	for _, s := range sents {
		emb := a.tagger.Embed(s.Tokens, nn.F64)
		for t := 0; t < emb.Rows; t++ {
			mem.add(s.Tokens[t], emb.Row(t))
		}
		if emb.Rows == 0 {
			out[s.Key()] = nil
			continue
		}
		x := a.features(s.Tokens, emb, mem)
		logits := a.head.Forward(x, false)
		labels := make([]types.BIOLabel, emb.Rows)
		for t := 0; t < emb.Rows; t++ {
			labels[t] = types.BIOLabel(nn.ArgMax(logits.Row(t)))
		}
		out[s.Key()] = labelsToEntities(labels)
	}
	return out
}
