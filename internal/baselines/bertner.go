package baselines

import (
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

// BERTNER is the Devlin et al. BERT baseline: the same Transformer
// architecture as the BERTweet stand-in, but pre-trained on a
// well-edited formal-text corpus before NER fine-tuning. The domain
// mismatch (clean casing, no hashtags, no typos at pre-training time)
// is what makes it weaker than a tweet-pre-trained encoder on
// microblog streams.
type BERTNER struct {
	tagger         *localner.Tagger
	pretrainN      int
	pretrainEpochs int
	pretrainLR     float64
	fineTuneEpochs int
	seed           int64
}

// BERTNERConfig configures the baseline.
type BERTNERConfig struct {
	Encoder        transformer.Config
	PretrainN      int
	PretrainEpochs int
	PretrainLR     float64
	FineTuneEpochs int
	FineTuneLR     float64
	// InferBatchTokens caps the tokens packed per encoder inference
	// call in Predict (0 runs every sentence alone). Predictions are
	// byte-identical at every setting.
	InferBatchTokens int
	Seed             int64
}

// NewBERTNER builds the baseline (encoder weights fresh; call Train).
func NewBERTNER(cfg BERTNERConfig) *BERTNER {
	enc := transformer.NewEncoder(cfg.Encoder)
	t := localner.NewTagger(enc, cfg.FineTuneLR)
	t.BatchTokens = cfg.InferBatchTokens
	return &BERTNER{
		tagger:         t,
		pretrainN:      cfg.PretrainN,
		pretrainEpochs: cfg.PretrainEpochs,
		pretrainLR:     cfg.PretrainLR,
		fineTuneEpochs: cfg.FineTuneEpochs,
		seed:           cfg.Seed,
	}
}

// Name implements System.
func (b *BERTNER) Name() string { return "BERT-NER" }

// Train pre-trains on formal text, then fine-tunes on the annotated
// sentences.
func (b *BERTNER) Train(train []*types.Sentence) {
	formal := corpus.PretrainFormal(b.pretrainN, b.seed)
	if enc, ok := b.tagger.Encoder().(*transformer.Encoder); ok {
		mlm := transformer.NewMLMTrainer(enc, b.pretrainLR)
		for i := 0; i < b.pretrainEpochs; i++ {
			mlm.TrainEpoch(formal)
		}
	}
	b.tagger.Train(train, b.fineTuneEpochs)
}

// Predict implements System. The tagger forwards run over the
// process-wide pool in spans of at most InferBatchTokens tokens per
// worker item; the map assembles serially afterwards, so the prediction
// set is identical at any worker count and batch size.
func (b *BERTNER) Predict(sents []*types.Sentence) map[types.SentenceKey][]types.Entity {
	toks := make([][]string, len(sents))
	for i, s := range sents {
		toks[i] = s.Tokens
	}
	results := b.tagger.RunBatch(toks, parallel.Default(), nn.F64)
	out := make(map[types.SentenceKey][]types.Entity, len(sents))
	for i, s := range sents {
		out[s.Key()] = results[i].Entities
	}
	return out
}
