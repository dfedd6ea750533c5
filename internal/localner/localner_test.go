package localner

import (
	"fmt"
	"reflect"
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/rnn"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

func testConfig() transformer.Config {
	return transformer.Config{
		Dim: 16, Heads: 2, Layers: 1, FFDim: 32, MaxLen: 16,
		VocabBuckets: 256, CharBuckets: 64, Dropout: 0, Seed: 5,
	}
}

func trainingSentences() []*types.Sentence {
	mk := func(tokens []string, ents ...types.Entity) *types.Sentence {
		return &types.Sentence{Tokens: tokens, Gold: ents}
	}
	return []*types.Sentence{
		mk([]string{"beshear", "gives", "an", "update"},
			types.Entity{Span: types.Span{Start: 0, End: 1}, Type: types.Person}),
		mk([]string{"cases", "rise", "in", "italy"},
			types.Entity{Span: types.Span{Start: 3, End: 4}, Type: types.Location}),
		mk([]string{"trump", "visits", "canada"},
			types.Entity{Span: types.Span{Start: 0, End: 1}, Type: types.Person},
			types.Entity{Span: types.Span{Start: 2, End: 3}, Type: types.Location}),
		mk([]string{"the", "nhs", "is", "overwhelmed"},
			types.Entity{Span: types.Span{Start: 1, End: 2}, Type: types.Organization}),
		mk([]string{"nothing", "happening", "today"}),
		mk([]string{"beshear", "visits", "italy"},
			types.Entity{Span: types.Span{Start: 0, End: 1}, Type: types.Person},
			types.Entity{Span: types.Span{Start: 2, End: 3}, Type: types.Location}),
	}
}

func TestTaggerLearnsTrainingSet(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	sents := trainingSentences()
	losses := tagger.Train(sents, 40)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("fine-tuning loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	// The tagger should recover the training annotations.
	res := tagger.Run([]string{"beshear", "gives", "an", "update"}, nn.F64)
	if len(res.Entities) != 1 || res.Entities[0].Type != types.Person || res.Entities[0].Start != 0 {
		t.Fatalf("tagger failed to learn training example: %+v", res.Entities)
	}
}

func TestRunReturnsConsistentShapes(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	res := tagger.Run([]string{"hello", "world"}, nn.F64)
	if len(res.Labels) != 2 || res.Embeddings.Rows != 2 || res.Embeddings.Cols != 16 {
		t.Fatalf("result shapes wrong: %d labels, %dx%d emb", len(res.Labels), res.Embeddings.Rows, res.Embeddings.Cols)
	}
	if len(res.Tokens) != 2 {
		t.Fatalf("tokens = %v", res.Tokens)
	}
}

func TestRunEmptySentence(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	res := tagger.Run(nil, nn.F64)
	if len(res.Labels) != 0 || len(res.Entities) != 0 {
		t.Fatal("empty sentence should produce empty result")
	}
}

func TestEmbedMatchesRunEmbeddings(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	tokens := []string{"covid", "in", "us"}
	a := tagger.Run(tokens, nn.F64).Embeddings
	b := tagger.Embed(tokens, nn.F64)
	a.SubInPlace(b)
	if a.MaxAbs() != 0 {
		t.Fatal("Embed must match the embeddings produced by Run")
	}
}

func TestTruncationInRun(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	long := make([]string, 40)
	for i := range long {
		long[i] = "x"
	}
	res := tagger.Run(long, nn.F64)
	if len(res.Labels) != 16 {
		t.Fatalf("labels after truncation = %d, want 16", len(res.Labels))
	}
}

// batchTestSentences mixes ragged, empty, and overlong sentences.
func batchTestSentences() [][]string {
	long := make([]string, 40)
	for i := range long {
		long[i] = "pad"
	}
	return [][]string{
		{"beshear", "gives", "an", "update"},
		{},
		{"cases", "rise", "in", "Italy", "#covid"},
		nil,
		long,
		{"trump"},
		{"the", "NHS", "is", "overwhelmed", "@bbc", "http://x.co/1"},
		{"nothing", "happening", "today"},
	}
}

// TestRunBatchIdentityAcrossBatchSizes pins tagging at F64 to the
// training forward: at every BatchTokens setting and worker count, for
// both encoder families, RunBatch must reproduce the labels and
// entities decoded from Forward(tokens, false) and its embedding bytes.
func TestRunBatchIdentityAcrossBatchSizes(t *testing.T) {
	encoders := map[string]Encoder{
		"transformer": transformer.NewEncoder(testConfig()),
		"bigru": rnn.NewEncoder(rnn.Config{
			Dim: 16, MaxLen: 16, VocabBuckets: 256, CharBuckets: 64, Seed: 5,
		}),
	}
	sents := batchTestSentences()
	for name, enc := range encoders {
		tagger := NewTagger(enc, 0.01)
		tagger.Train(trainingSentences(), 10)
		want := make([]*Result, len(sents))
		for i, s := range sents {
			want[i] = &Result{}
			if tokens := enc.Truncate(s); len(tokens) > 0 {
				want[i] = tagger.resultFrom(tokens, enc.Forward(tokens, false))
			}
		}
		for _, batchTokens := range []int{0, 1, 16, 256} {
			for _, workers := range []int{1, 4, 8} {
				tagger.BatchTokens = batchTokens
				got := tagger.RunBatch(sents, parallel.New(workers), nn.F64)
				for i := range sents {
					g, w := got[i], want[i]
					label := fmt.Sprintf("%s batch=%d workers=%d sentence %d", name, batchTokens, workers, i)
					if !reflect.DeepEqual(g.Tokens, w.Tokens) || !reflect.DeepEqual(g.Labels, w.Labels) ||
						!reflect.DeepEqual(g.Entities, w.Entities) {
						t.Fatalf("%s: %+v vs %+v", label, g, w)
					}
					if (g.Embeddings == nil) != (w.Embeddings == nil) {
						t.Fatalf("%s: embeddings nil mismatch", label)
					}
					if g.Embeddings == nil {
						continue
					}
					if g.Embeddings.Rows != w.Embeddings.Rows || g.Embeddings.Cols != w.Embeddings.Cols {
						t.Fatalf("%s: embedding shape mismatch", label)
					}
					for j := range w.Embeddings.Data {
						if g.Embeddings.Data[j] != w.Embeddings.Data[j] {
							t.Fatalf("%s: embedding byte %d diverges", label, j)
						}
					}
				}
			}
		}
	}
}

// TestPackSpansRespectsBudget checks the packing invariants: spans
// cover every sentence exactly once, in order, and no span exceeds the
// token budget unless it holds a single oversized sentence.
func TestPackSpansRespectsBudget(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	tagger.BatchTokens = 8
	sents := batchTestSentences()
	spans := tagger.packSpans(sents)
	next := 0
	for _, sp := range spans {
		if sp[0] != next || sp[1] <= sp[0] {
			t.Fatalf("spans not contiguous: %v", spans)
		}
		next = sp[1]
		toks := 0
		for _, s := range sents[sp[0]:sp[1]] {
			toks += len(tagger.enc.Truncate(s))
		}
		if toks > tagger.BatchTokens && sp[1]-sp[0] > 1 {
			t.Fatalf("span %v holds %d tokens over budget %d", sp, toks, tagger.BatchTokens)
		}
	}
	if next != len(sents) {
		t.Fatalf("spans end at %d, want %d", next, len(sents))
	}
}

func TestTrainEpochSkipsEmptySentences(t *testing.T) {
	tagger := NewTagger(transformer.NewEncoder(testConfig()), 0.01)
	loss := tagger.TrainEpoch([]*types.Sentence{{Tokens: nil}})
	if loss != 0 {
		t.Fatalf("loss over empty corpus = %v", loss)
	}
}
