package transformer

import (
	"strconv"
	"sync"

	"nerglobalizer/internal/nn"
)

// encoderLayer is one pre-activation Transformer block: self-attention
// and feed-forward sublayers, each wrapped with a residual connection
// and layer normalization (post-norm, as in the original BERT).
type encoderLayer struct {
	attn     *multiHeadAttention
	ln1      *nn.LayerNorm
	ff       *nn.Sequential
	ln2      *nn.LayerNorm
	drop1    *nn.Dropout
	drop2    *nn.Dropout
	residual *nn.Matrix // cached inputs for residual backprop
	mid      *nn.Matrix

	// The feed-forward sublayers, also reachable through ff: the
	// inference path (infer_batch.go) drives them individually
	// with fused Into kernels over caller-owned scratch.
	ff1  *nn.Dense
	gelu *nn.GELU
	ff2  *nn.Dense
}

func newEncoderLayer(name string, cfg Config, rng *nn.RNG) *encoderLayer {
	// Construction order must match the struct-literal order the layer
	// always had: attention draws from rng before the FFN denses, so
	// freshly initialized weights stay identical run to run.
	attn := newMultiHeadAttention(name+".attn", cfg, rng)
	ln1 := nn.NewLayerNorm(name+".ln1", cfg.Dim)
	ff1 := nn.NewDense(name+".ff1", cfg.Dim, cfg.FFDim, rng)
	gelu := nn.NewGELU()
	ff2 := nn.NewDense(name+".ff2", cfg.FFDim, cfg.Dim, rng)
	return &encoderLayer{
		attn:  attn,
		ln1:   ln1,
		ff:    nn.NewSequential(ff1, gelu, ff2),
		ln2:   nn.NewLayerNorm(name+".ln2", cfg.Dim),
		drop1: nn.NewDropout(cfg.Dropout, rng.Fork()),
		drop2: nn.NewDropout(cfg.Dropout, rng.Fork()),
		ff1:   ff1,
		gelu:  gelu,
		ff2:   ff2,
	}
}

func (l *encoderLayer) Forward(x *nn.Matrix, train bool) *nn.Matrix {
	l.residual = x
	h := l.attn.Forward(x, train)
	h = l.drop1.Forward(h, train)
	h.AddInPlace(x)
	mid := l.ln1.Forward(h, train)
	l.mid = mid
	f := l.ff.Forward(mid, train)
	f = l.drop2.Forward(f, train)
	f.AddInPlace(mid)
	return l.ln2.Forward(f, train)
}

func (l *encoderLayer) Backward(dout *nn.Matrix) *nn.Matrix {
	d := l.ln2.Backward(dout)
	dFF := l.drop2.Backward(d)
	dMid := l.ff.Backward(dFF)
	dMid.AddInPlace(d) // residual around feed-forward
	d2 := l.ln1.Backward(dMid)
	dAttn := l.drop1.Backward(d2)
	dx := l.attn.Backward(dAttn)
	dx.AddInPlace(d2) // residual around attention
	return dx
}

func (l *encoderLayer) Params() []*nn.Param {
	ps := l.attn.Params()
	ps = append(ps, l.ln1.Params()...)
	ps = append(ps, l.ff.Params()...)
	ps = append(ps, l.ln2.Params()...)
	return ps
}

// Encoder is the full Transformer encoder: hashing embeddings followed
// by Config.Layers encoder blocks. It processes one token sequence at
// a time and exposes the final-layer token states — the "entity-aware
// token embeddings" consumed by the rest of the pipeline once the
// encoder has been fine-tuned for NER.
type Encoder struct {
	cfg    Config
	embed  *embedding
	layers []*encoderLayer
	rng    *nn.RNG

	// scratch recycles InferScratch arenas across InferBatch calls
	// (one arena per concurrent caller; each grows to the largest
	// packed batch it has seen). The zero value is ready to use.
	scratch sync.Pool
}

// NewEncoder builds an encoder with freshly initialized weights.
func NewEncoder(cfg Config) *Encoder {
	cfg.validate()
	rng := nn.NewRNG(cfg.Seed)
	e := &Encoder{cfg: cfg, embed: newEmbedding(cfg, rng), rng: rng}
	for i := 0; i < cfg.Layers; i++ {
		e.layers = append(e.layers, newEncoderLayer(layerName(i), cfg, rng))
	}
	return e
}

func layerName(i int) string { return "layer" + strconv.Itoa(i) }

// Config returns the encoder configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Dim returns the model dimensionality.
func (e *Encoder) Dim() int { return e.cfg.Dim }

// Truncate clips a token sequence to the encoder's maximum length.
func (e *Encoder) Truncate(tokens []string) []string {
	if len(tokens) > e.cfg.MaxLen {
		return tokens[:e.cfg.MaxLen]
	}
	return tokens
}

// Forward encodes tokens into a T×Dim matrix of contextual token
// embeddings. Sequences longer than MaxLen are truncated.
func (e *Encoder) Forward(tokens []string, train bool) *nn.Matrix {
	tokens = e.Truncate(tokens)
	x := e.embed.forward(tokens)
	for _, l := range e.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the gradient of the final token states back
// through every layer and into the embedding tables. It must follow a
// Forward on the same (possibly truncated) sequence.
func (e *Encoder) Backward(dout *nn.Matrix) {
	for i := len(e.layers) - 1; i >= 0; i-- {
		dout = e.layers[i].Backward(dout)
	}
	e.embed.backward(dout)
}

// Params returns every trainable parameter of the encoder.
func (e *Encoder) Params() []*nn.Param {
	ps := e.embed.params()
	for _, l := range e.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// RNG exposes the encoder's deterministic random stream so callers can
// derive shuffling without importing a second seed.
func (e *Encoder) RNG() *nn.RNG { return e.rng }

// WarmPacks (re)builds the packed weight mirrors for tier p across
// every layer, moving the packing cost out of the first inference call
// at that tier. Safe to call concurrently with inference.
func (e *Encoder) WarmPacks(p nn.Precision) {
	for _, l := range e.layers {
		for _, d := range []*nn.Dense{l.attn.wq, l.attn.wk, l.attn.wv, l.attn.wo, l.ff1, l.ff2} {
			d.Warm(p)
		}
		l.ln1.Warm(p)
		l.ln2.Warm(p)
	}
}
