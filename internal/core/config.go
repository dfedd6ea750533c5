// Package core implements the NER Globalizer pipeline — the paper's
// primary contribution. It wires the Local NER tagger, the candidate
// prefix trie, mention extraction, the Entity Phrase Embedder,
// candidate cluster generation, attention pooling and the Entity
// Classifier into the continuous execution cycle of Section III, and
// exposes the ablation stages of Figure 3.
package core

import (
	"nerglobalizer/internal/classifier"
	"nerglobalizer/internal/cluster"
	"nerglobalizer/internal/phrase"
	"nerglobalizer/internal/transformer"
)

// Objective selects the contrastive objective used to train the
// Phrase Embedder (Table II compares the two).
type Objective int

// The two Phrase Embedder training objectives.
const (
	// ObjectiveTriplet is the production configuration (eq. 4).
	ObjectiveTriplet Objective = iota
	// ObjectiveSoftNN is the soft nearest-neighbour alternative (eq. 5).
	ObjectiveSoftNN
)

// String names the objective.
func (o Objective) String() string {
	if o == ObjectiveSoftNN {
		return "SoftNN"
	}
	return "Triplet"
}

// EncoderKind selects the Local NER language-model family.
type EncoderKind int

// Encoder families.
const (
	// EncoderTransformer is the BERTweet stand-in (default).
	EncoderTransformer EncoderKind = iota
	// EncoderBiGRU is the BiLSTM-era recurrent alternative.
	EncoderBiGRU
)

// String names the encoder kind.
func (k EncoderKind) String() string {
	if k == EncoderBiGRU {
		return "bigru"
	}
	return "transformer"
}

// Config gathers every knob of the pipeline.
type Config struct {
	// Encoder configures the Local NER language model (dimensions are
	// shared by both encoder kinds).
	Encoder transformer.Config
	// Kind selects the language-model family; masked-LM pre-training
	// applies only to EncoderTransformer.
	Kind EncoderKind
	// PretrainSentences and PretrainEpochs control masked-LM
	// pre-training of the encoder.
	PretrainSentences int
	PretrainEpochs    int
	PretrainLR        float64
	// FineTuneEpochs and FineTuneLR control NER fine-tuning on the
	// annotated training split.
	FineTuneEpochs int
	FineTuneLR     float64
	// Objective selects the Phrase Embedder loss; MaxTriplets caps the
	// mined triplet set.
	Objective   Objective
	MaxTriplets int
	PhraseTrain phrase.TrainConfig
	// ClassifierTrain controls Entity Classifier training.
	ClassifierTrain classifier.TrainConfig
	// EnsembleSize is the number of independently seeded Entity
	// Classifiers trained and averaged at inference. The paper reports
	// averages over five random seeds for its trained components; the
	// ensemble bakes the same variance reduction into one model.
	EnsembleSize int
	// ClusterThreshold is the agglomerative cosine threshold of the
	// candidate cluster generation step.
	ClusterThreshold float64
	// MinLocalSupport drops candidate surface forms whose mentions are
	// almost never confirmed by Local NER: a surface with at least
	// MinSupportMentions occurrences but a locally-typed fraction
	// below MinLocalSupport is discarded as noise before clustering.
	// This is the collective "syntactic support" verification of the
	// TwiCS / EMD Globalizer lineage — one stray local false positive
	// on a stopword must not flood the stream with mined mentions.
	MinLocalSupport    float64
	MinSupportMentions int
	// GuardOverrideConf is the ensemble confidence needed to override
	// a Local NER label on a small (1–2 mention) cluster; 0 means the
	// default of 0.75.
	GuardOverrideConf float64
	// NoneMiningTokens caps how many frequent non-entity tokens are
	// mined from D5 as explicit None training sets (0 disables).
	NoneMiningTokens int
	// JunkClusters is the number of synthetic incoherent None clusters
	// added to classifier training (0 disables).
	JunkClusters int
	// BatchSize discretizes the stream into execution cycles.
	BatchSize int
	// InferBatchTokens caps the tokens packed into one encoder inference
	// call: the local phase and the baseline predictors pack contiguous
	// sentences into a single flat token matrix of at most this many
	// (truncated) tokens per worker. Annotations are byte-identical at
	// every setting — packing changes kernel shapes, never values. At 0
	// every sentence is a call of its own, through the same path.
	InferBatchTokens int
	// InferPrecision selects the numeric tier of the encoder-bound
	// inference kernels: "f64" (or empty — the exact default, bit-
	// identical to training), "f32" (packed float32 GEMMs), or "i8"
	// (dynamic int8 dense GEMMs with float32 accumulation). Training
	// always runs f64; weights stay f64 on disk. Reduced tiers trade
	// the bit-identity contract for throughput under the error bounds
	// pinned in internal/nn; any other spelling is rejected, never
	// silently mapped to f64. New applies it through SetPrecision; from
	// then on Globalizer.Precision is the live value and this field is
	// what a checkpoint round-trips.
	InferPrecision string
	// Workers caps the goroutines used by the data-parallel hot paths
	// (batch tagging, mention scanning, phrase embedding, pairwise
	// clustering distances, per-surface classification). 0 sizes the
	// pool from GOMAXPROCS; 1 reproduces the serial execution exactly.
	// Output is byte-identical at every setting — the knob trades
	// wall-clock only.
	Workers int
	// Seed feeds auxiliary randomness (mining, shuffles).
	Seed int64
}

// DefaultConfig returns the production configuration of the
// reproduction, scaled to run on one CPU in seconds.
func DefaultConfig() Config {
	clsTrain := classifier.DefaultTrainConfig()
	// The paper's lr of 0.0015 is tuned for its 15.77M-triplet regime;
	// at this reproduction's data scale a slightly higher rate with
	// longer patience reaches the same checkpoints (see EXPERIMENTS.md).
	clsTrain.LR = 0.005
	clsTrain.Patience = 30
	return Config{
		Encoder:            transformer.DefaultConfig(),
		PretrainSentences:  1500,
		PretrainEpochs:     2,
		PretrainLR:         0.001,
		FineTuneEpochs:     30,
		FineTuneLR:         0.003,
		Objective:          ObjectiveTriplet,
		MaxTriplets:        30000,
		PhraseTrain:        phrase.DefaultTrainConfig(),
		ClassifierTrain:    clsTrain,
		EnsembleSize:       3,
		ClusterThreshold:   cluster.DefaultThreshold,
		MinLocalSupport:    0.1,
		MinSupportMentions: 10,
		NoneMiningTokens:   40,
		JunkClusters:       15,
		BatchSize:          500,
		InferBatchTokens:   256,
		Seed:               13,
	}
}
