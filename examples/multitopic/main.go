// Multitopic demonstrates the continuous, incremental execution setup
// of Section III: a multi-topic stream is consumed batch by batch, and
// after each execution cycle the pipeline's cumulative output improves
// as collective context accumulates — more mentions per candidate mean
// more robust global embeddings (the Figure 4 effect, observed live).
//
// Run with:
//
//	go run ./examples/multitopic
package main

import (
	"fmt"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/experiments"
	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/types"
)

func main() {
	scale := experiments.SmallScale()
	g := core.New(scale.Core)
	fmt.Println("training pipeline...")
	g.PretrainEncoder(corpus.PretrainTweets(scale.PretrainN, 21))
	g.FineTuneLocal(scale.TrainSet().Sentences)
	g.TrainGlobal(scale.D5().Sentences)

	// A three-topic stream, processed in four growing prefixes to
	// simulate the stream evolving through execution cycles.
	stream := corpus.Generate(corpus.StreamConfig{
		Name: "multitopic", NumTweets: 600, NumTopics: 3,
		PerTopicEntities: [4]int{14, 12, 9, 9},
		ZipfExponent:     1.1, TypoRate: 0.02, LowercaseRate: 0.35,
		NonEntityRate: 0.3, AmbiguousRate: 0.15, UninformativeRate: 0.15,
		Ambiguity: true, AltFull: true, Streaming: true, Seed: 77,
	})
	gold := stream.GoldByKey()

	fmt.Printf("\nstream: %d tweets over %d topics, %d unique entities\n\n",
		stream.Size(), stream.Topics, stream.UniqueEntities())
	fmt.Printf("%-12s %8s %12s %12s %12s\n",
		"cycle", "tweets", "candidates", "local F1", "global F1")
	g.Reset()
	quarter := stream.Size() / 4
	for cycle := 0; cycle < 4; cycle++ {
		batch := stream.Sentences[cycle*quarter : (cycle+1)*quarter]
		g.ProcessTagged(batch, nil, core.ModeFull)
		seen := stream.Sentences[:(cycle+1)*quarter]
		sub := goldFor(seen, gold)
		lf := metrics.Evaluate(sub, g.TweetBase().LocalEntityMap()).MacroF1()
		gf := metrics.Evaluate(sub, g.TweetBase().FinalEntityMap()).MacroF1()
		fmt.Printf("cycle %d %10d %12d %12.3f %12.3f\n",
			cycle+1, len(seen), g.CandidateBase().Len(), lf, gf)
	}
	fmt.Println("\nWith more of the stream seen, candidates accumulate more mentions")
	fmt.Println("and the global stage has more collective context to pool.")
}

// goldFor restricts the gold map to the given sentences.
func goldFor(sents []*types.Sentence, gold map[types.SentenceKey][]types.Entity) map[types.SentenceKey][]types.Entity {
	out := make(map[types.SentenceKey][]types.Entity, len(sents))
	for _, s := range sents {
		out[s.Key()] = gold[s.Key()]
	}
	return out
}
