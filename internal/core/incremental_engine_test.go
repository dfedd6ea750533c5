package core

import (
	"testing"

	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

func TestIncrementalEngineCycles(t *testing.T) {
	g := trainedGlobalizer(t)
	test := smallStream("inceng", 160, 81)
	inc := NewIncremental(g)
	batches := stream.Batches(test.Sentences, 40)

	var final map[types.SentenceKey][]types.Entity
	for i, b := range batches {
		final = inc.Cycle(b)
		if len(final) != (i+1)*40 {
			t.Fatalf("cycle %d covers %d sentences", i, len(final))
		}
	}
	// Outputs must be well-formed: valid non-overlapping spans, no
	// None types.
	for _, s := range test.Sentences {
		ents := final[s.Key()]
		end := 0
		for _, e := range ents {
			if e.Start < end || e.End > len(s.Tokens) || e.Start >= e.End || e.Type == types.None {
				t.Fatalf("ill-formed incremental output %+v in %v", e, s.Tokens)
			}
			end = e.End
		}
	}
}

func TestIncrementalEngineTracksBatchQuality(t *testing.T) {
	// The incremental engine's final output should score close to the
	// batch recomputation on the same stream (greedy clustering may
	// deviate slightly).
	g := trainedGlobalizer(t)
	test := smallStream("inceng2", 200, 83)
	gold := test.GoldByKey()

	inc := NewIncremental(g)
	var final map[types.SentenceKey][]types.Entity
	for _, b := range stream.Batches(test.Sentences, 50) {
		final = inc.Cycle(b)
	}
	incF1 := metrics.Evaluate(gold, final).MacroF1()

	batchRes := g.Run(test.Sentences, ModeFull)
	batchF1 := metrics.Evaluate(gold, batchRes.Final).MacroF1()
	t.Logf("macro-F1: incremental=%.3f batch=%.3f", incF1, batchF1)
	if incF1 < batchF1-0.12 {
		t.Fatalf("incremental engine too far below batch: %.3f vs %.3f", incF1, batchF1)
	}
}

func TestIncrementalEngineBackMinesNewSurfaces(t *testing.T) {
	// A surface first detected in cycle 2 must have its cycle-1
	// occurrences recovered by back-mining.
	g := trainedGlobalizer(t)
	inc := NewIncremental(g)
	early := &types.Sentence{TweetID: 1, Tokens: []string{"brunfel", "lol"}}
	inc.Cycle([]*types.Sentence{early})
	// "Brunfel" in an informative context: likely locally detected
	// here, seeding the surface.
	late := &types.Sentence{TweetID: 2, Tokens: []string{"governor", "Brunfel", "gives", "an", "update"}}
	inc.Cycle([]*types.Sentence{late})
	ms := inc.mentions["brunfel"]
	keys := map[int]bool{}
	for _, m := range ms {
		keys[m.Key.TweetID] = true
	}
	if len(ms) > 0 && !keys[1] && keys[2] {
		t.Fatal("back-mining failed: early occurrence not pooled")
	}
	// (If local NER missed both, ms is empty — vacuously fine for this
	// trained fixture; the assertion above only fires when the surface
	// was seeded.)
}

func TestResolveOverlaps(t *testing.T) {
	mk := func(start, end int) types.Mention {
		return types.Mention{Span: types.Span{Start: start, End: end}, Type: types.Person}
	}
	got := resolveOverlaps([]types.Mention{mk(2, 4), mk(0, 3), mk(0, 1), mk(5, 6)})
	// Leftmost-longest: [0,3) wins over [0,1); [2,4) overlaps and is
	// dropped; [5,6) kept.
	if len(got) != 2 || got[0].Span.Start != 0 || got[0].Span.End != 3 || got[1].Span.Start != 5 {
		t.Fatalf("resolveOverlaps = %v", got)
	}
	if out := resolveOverlaps(nil); len(out) != 0 {
		t.Fatal("nil input should stay empty")
	}
}

func TestGreedyClustersAdd(t *testing.T) {
	c := &greedyClusters{threshold: 0.5}
	a := c.Add([]float64{1, 0})
	b := c.Add([]float64{0.99, 0.05}) // close to the first
	o := c.Add([]float64{0, 1})       // orthogonal: new cluster
	if a != b {
		t.Fatalf("close points split: %d vs %d", a, b)
	}
	if o == a {
		t.Fatal("orthogonal point merged")
	}
	if len(c.members) != 2 || len(c.members[a]) != 2 || len(c.members[o]) != 1 {
		t.Fatalf("membership sizes wrong: %v", c.members)
	}
}
