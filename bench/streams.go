package main

import (
	"encoding/json"
	"math/rand"
	"strings"

	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/types"
)

// requestTweets is the request size of every bulk phase (prime, the
// short streams, the durable epilogue).
const requestTweets = 32

// corpusSeed fixes the corpora. The run's -seed only permutes the
// arrival order of their tweets: two corpora from different generator
// seeds differ 2x in drain throughput (entity inventories, surface
// collisions and Zipf ranks all change), which would drown any
// comparison across seeds, while a permutation of one corpus keeps the
// work the same and still varies which tweet meets which state.
const corpusSeed = 71

// genCorpus generates one synthetic stream with the bench-stream noise
// settings of cmd/benchpipeline, in the generator's order. streaming
// selects a topical recurrent stream (2 topics, Zipf 1.1); otherwise
// tweets are random-sampled from throwaway micro-topics (the
// WNUT17/BTC analogue, low recurrence). corpus numbers the distinct
// corpora of a workload.
func genCorpus(n int, streaming bool, corpusID int) []*types.Sentence {
	return corpus.Generate(corpus.StreamConfig{
		Name: "benchstream", NumTweets: n, NumTopics: 2,
		PerTopicEntities:  [4]int{12, 10, 8, 8},
		ZipfExponent:      1.1,
		TypoRate:          0.08,
		CapNoiseRate:      0.12,
		LowercaseRate:     0.35,
		NonEntityRate:     0.3,
		AmbiguousRate:     0.15,
		UninformativeRate: 0.25,
		AltFull:           true,
		Ambiguity:         true, Streaming: streaming, Seed: corpusSeed + int64(corpusID),
	}).Sentences
}

// seedRand is the source every seeded choice of a run draws from.
func seedRand(seed int64, corpusID int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1009 + int64(corpusID)))
}

// shuffle permutes tweets in place.
func shuffle(tweets []*types.Sentence, rng *rand.Rand) {
	rng.Shuffle(len(tweets), func(i, j int) { tweets[i], tweets[j] = tweets[j], tweets[i] })
}

// genStream is a corpus with its tweets in an order drawn from seed.
func genStream(n int, streaming bool, corpusID int, seed int64) []*types.Sentence {
	tweets := genCorpus(n, streaming, corpusID)
	shuffle(tweets, seedRand(seed, corpusID))
	return tweets
}

// tweetText is the raw text the program receives for a generated
// tweet: the generator's tokens joined by spaces. The program
// tokenizes and sentence-splits it itself.
func tweetText(s *types.Sentence) string { return strings.Join(s.Tokens, " ") }

// opTexts are the raw texts an op's request carries.
func opTexts(tweets []*types.Sentence, o op) []string {
	texts := make([]string, len(o.tweets))
	for i, t := range o.tweets {
		texts[i] = tweetText(tweets[t])
	}
	return texts
}

// annotateBody encodes the /annotate payload for texts.
func annotateBody(texts []string) []byte {
	b, err := json.Marshal(struct {
		Tweets []string `json:"tweets"`
	}{texts})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// annotateOps cuts tweets[from:to] into requests of per tweets each
// (the last may be shorter).
func annotateOps(tweets []*types.Sentence, from, to, per int) []op {
	var ops []op
	for i := from; i < to; i += per {
		end := i + per
		if end > to {
			end = to
		}
		var o op
		for t := i; t < end; t++ {
			o.tweets = append(o.tweets, t)
		}
		o.body = annotateBody(opTexts(tweets, o))
		ops = append(ops, o)
	}
	return ops
}

// evenOps cuts tweets[from:to] into exactly n requests whose sizes
// differ by at most one tweet.
func evenOps(tweets []*types.Sentence, from, to, n int) []op {
	var ops []op
	for k := 0; k < n; k++ {
		lo, hi := from+k*(to-from)/n, from+(k+1)*(to-from)/n
		ops = append(ops, annotateOps(tweets, lo, hi, hi-lo)...)
	}
	return ops
}

// pace stamps ops with due times at a fixed rate: op i is due at
// i/rate from the phase start.
func pace(ops []op, rate float64) {
	for i := range ops {
		ops[i].due = dueAt(i, rate)
	}
}
