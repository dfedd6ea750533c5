package core

import (
	"fmt"
	"slices"
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
)

// TestEmbedCacheMatchesWholeStreamTagging is the direct oracle for
// token states that live one cycle. A stream whose embeds reach back
// to older sentences — longer surfaces arriving late, a mid-stream
// restore into a fresh engine — must leave every entry of the embed
// cache equal to the embedding of its span over the states one RunBatch
// over the whole final stream gives at the pooling tier.
// The oracle does not go through mentionStates, so it holds the lazy
// re-embed to the tag results it replaces at every tier, worker count
// and packing budget, i8 (whose pooling tier is f32) included.
func TestEmbedCacheMatchesWholeStreamTagging(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.SetInferBatch(g.Config().InferBatchTokens) // the tagger is shared
	for _, prec := range []nn.Precision{nn.F64, nn.F32, nn.I8} {
		for _, workers := range []int{1, 4} {
			for _, batchTokens := range []int{0, 256} {
				name := fmt.Sprintf("%v/workers=%d/batch=%d", prec, workers, batchTokens)
				configure := func(e *Globalizer) *Globalizer {
					if err := e.SetPrecision(prec); err != nil {
						t.Fatal(err)
					}
					e.SetWorkers(workers)
					e.SetInferBatch(batchTokens)
					return e
				}
				e := configure(g.WithClusterThreshold(g.Config().ClusterThreshold))
				reg := obs.NewRegistry()
				e.SetObserver(reg)

				for ci, b := range deltaStream(e) {
					e.ProcessTagged(b.sents, b.tagged, ModeFull)
					if ci == 9 {
						ws := e.CaptureWarmState()
						if ws.Amort == nil {
							t.Fatalf("%s: no amortizer state to restore", name)
						}
						next := configure(g.WithClusterThreshold(g.Config().ClusterThreshold))
						next.SetObserver(reg)
						if err := next.RestoreWarmState(ws); err != nil {
							t.Fatal(err)
						}
						e = next
					}
				}
				if len(e.states) != 0 {
					t.Fatalf("%s: token states outlived the last cycle", name)
				}

				tb := e.TweetBase()
				toks := make([][]string, tb.Len())
				for p := range toks {
					toks[p] = tb.At(p).Sentence.Tokens
				}
				want := e.Tagger.RunBatch(toks, nil, e.poolTier())
				entries := 0
				for p, row := range e.amort.rows {
					for span, got := range row.embeds {
						entries++
						if !slices.Equal(got, e.Embedder.Embed(want[p].Embeddings, span)) {
							t.Fatalf("%s: cached embedding of %v at position %d differs from the whole-stream oracle", name, span, p)
						}
					}
				}
				late := reg.Snapshot().Counters["ner_mentions_embedded_late_total"]
				if entries == 0 || late == 0 {
					t.Fatalf("%s: %d cache entries, %d late embeds: the stream reached back to no older sentence", name, entries, late)
				}
			}
		}
	}
}
