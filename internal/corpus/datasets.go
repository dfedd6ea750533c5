package corpus

// evalNoise returns the noise knobs of the evaluation streams: the
// full alternation distribution (train/test lexical shift), heavy case
// noise (microblog users rarely capitalize), realistic typo rates,
// about a third of tweets with no entity, and a tail of
// ambiguous/uninformative contexts that starve local processing.
func evalNoise(cfg StreamConfig) StreamConfig {
	cfg.ZipfExponent = 1.1
	cfg.AltFull = true
	cfg.TypoRate = 0.08
	cfg.CapNoiseRate = 0.12
	cfg.LowercaseRate = 0.35
	cfg.NonEntityRate = 0.3
	cfg.AmbiguousRate = 0.15
	cfg.UninformativeRate = 0.25
	return cfg
}

// trainNoise returns the noise knobs of the training corpora: the
// same generator restricted to canonical alternation variants and
// milder noise — a "pre-shift" crawl, as WNUT17's training split is
// relative to its novel-and-emerging test split.
func trainNoise(cfg StreamConfig) StreamConfig {
	cfg = evalNoise(cfg)
	cfg.AltFull = false
	cfg.TypoRate = 0.02
	cfg.CapNoiseRate = 0.08
	cfg.UninformativeRate = 0.15
	return cfg
}

// D1 models Table I's D1: a 1K-tweet single-topic stream with ~283
// unique entities.
func D1() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "D1", NumTweets: 1000, NumTopics: 1,
		PerTopicEntities: [4]int{100, 80, 60, 60},
		Ambiguity:        true, Streaming: true, Seed: 101,
	}))
}

// D2 models the Covid-19 stream of the case study: 2K tweets, one
// topic, ~461 unique entities.
func D2() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "D2", NumTweets: 2000, NumTopics: 1,
		PerTopicEntities: [4]int{150, 120, 110, 100},
		Ambiguity:        true, Streaming: true, Seed: 102,
	}))
}

// D3 models D3: 3K tweets over 3 topics, ~906 unique entities.
func D3() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "D3", NumTweets: 3000, NumTopics: 3,
		PerTopicEntities: [4]int{110, 90, 60, 60},
		Ambiguity:        true, Streaming: true, Seed: 103,
	}))
}

// D4 models D4: 6K tweets over 5 topics, ~674 unique entities (fewer
// entities than D3 despite more tweets — heavier recurrence).
func D4() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "D4", NumTweets: 6000, NumTopics: 5,
		PerTopicEntities: [4]int{50, 40, 25, 25},
		Ambiguity:        true, Streaming: true, Seed: 104,
	}))
}

// D5 models the training stream: 3430 tweets used to train the Phrase
// Embedder and Entity Classifier. Like the fine-tuning split, it is a
// pre-shift crawl (canonical alternation variants only) spanning two
// topics so the classifier sees diverse entity inventories.
func D5() *Dataset {
	cfg := trainNoise(StreamConfig{
		Name: "D5", NumTweets: 3430, NumTopics: 2,
		PerTopicEntities: [4]int{70, 55, 50, 45},
		Ambiguity:        true, Streaming: true, Seed: 105,
	})
	return Generate(cfg)
}

// WNUT17 models the WNUT17 test set: 1287 random-sampled tweets with
// low entity recurrence.
func WNUT17() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "WNUT17", NumTweets: 1287, NumTopics: 8,
		PerTopicEntities: [4]int{20, 15, 12, 12},
		Ambiguity:        true, Streaming: false, Seed: 106,
	}))
}

// WNUT17Train models the WNUT17 training split used to fine-tune the
// Local NER language model.
func WNUT17Train() *Dataset {
	cfg := trainNoise(StreamConfig{
		Name: "WNUT17-train", NumTweets: 3000, NumTopics: 10,
		PerTopicEntities: [4]int{25, 20, 15, 15},
		Ambiguity:        true, Streaming: false, Seed: 107,
	})
	return Generate(cfg)
}

// BTC models the Broad Twitter Corpus: 9553 random-sampled tweets.
func BTC() *Dataset {
	return Generate(evalNoise(StreamConfig{
		Name: "BTC", NumTweets: 9553, NumTopics: 12,
		PerTopicEntities: [4]int{20, 16, 12, 12},
		Ambiguity:        true, Streaming: false, Seed: 108,
	}))
}

// EvaluationSets returns the six annotated datasets of Tables III–V in
// paper order.
func EvaluationSets() []*Dataset {
	return []*Dataset{D1(), D2(), D3(), D4(), WNUT17(), BTC()}
}

// PretrainTweets generates an unlabeled tweet corpus for masked-LM
// pre-training of the BERTweet stand-in: mixed topics, full microblog
// noise.
func PretrainTweets(n int, seed int64) [][]string {
	d := Generate(evalNoise(StreamConfig{
		Name: "pretrain-tweets", NumTweets: n, NumTopics: 6,
		PerTopicEntities: [4]int{30, 25, 20, 20},
		Ambiguity:        true, Streaming: true, Seed: seed,
	}))
	out := make([][]string, 0, len(d.Sentences))
	for _, s := range d.Sentences {
		out = append(out, s.Tokens)
	}
	return out
}

// PretrainFormal generates a well-edited text corpus (no typos, no
// case noise, no hashtags, informative contexts only) for pre-training
// the BERT-NER baseline — the domain-mismatch that makes seminal BERT
// weaker than BERTweet on microblog text.
func PretrainFormal(n int, seed int64) [][]string {
	cfg := StreamConfig{
		Name: "pretrain-formal", NumTweets: n, NumTopics: 6,
		PerTopicEntities:  [4]int{30, 25, 20, 20},
		ZipfExponent:      1.1,
		TypoRate:          0,
		LowercaseRate:     0,
		NonEntityRate:     0.3,
		AmbiguousRate:     0,
		UninformativeRate: 0,
		Ambiguity:         false,
		NoHashtags:        true,
		Streaming:         true,
		Seed:              seed,
	}
	d := Generate(cfg)
	out := make([][]string, 0, len(d.Sentences))
	for _, s := range d.Sentences {
		out = append(out, s.Tokens)
	}
	return out
}
