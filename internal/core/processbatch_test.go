package core

import (
	"reflect"
	"testing"

	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/stream"
)

func TestProcessBatchAccumulatesState(t *testing.T) {
	g := trainedGlobalizer(t)
	g.Reset()
	test := smallStream("inc", 120, 61)
	batches := stream.Batches(test.Sentences, 40)

	var lastCandidates int
	for i, b := range batches {
		out := g.ProcessBatch(b, ModeFull)
		seen := (i + 1) * 40
		if len(out) != seen {
			t.Fatalf("cycle %d: output covers %d sentences, want %d", i, len(out), seen)
		}
		if g.TweetBase().Len() != seen {
			t.Fatalf("cycle %d: tweet base has %d records", i, g.TweetBase().Len())
		}
		if c := g.CandidateBase().Len(); c < lastCandidates {
			// Candidates can merge but the base should not collapse.
			if c == 0 {
				t.Fatalf("cycle %d: candidate base emptied", i)
			}
		} else {
			lastCandidates = c
		}
	}
}

func TestProcessBatchMatchesRunAtEnd(t *testing.T) {
	g := trainedGlobalizer(t)
	test := smallStream("inc2", 90, 63)
	batches := stream.Batches(test.Sentences, 30)

	g.Reset()
	var got any
	for _, b := range batches {
		got = g.ProcessBatch(b, ModeFull)
	}
	runRes := g.Run(test.Sentences, ModeFull)
	// The final incremental output must equal a fresh full run: the
	// global phase always recomputes over the accumulated stream.
	if !reflect.DeepEqual(got, runRes.Final) {
		gf := metrics.Evaluate(test.GoldByKey(), runRes.Final).MacroF1()
		t.Fatalf("incremental final output diverged from batch run (run macro-F1 %.3f)", gf)
	}
}

func TestProcessBatchLocalOnly(t *testing.T) {
	g := trainedGlobalizer(t)
	g.Reset()
	test := smallStream("inc3", 40, 65)
	out := g.ProcessBatch(test.Sentences, ModeLocalOnly)
	if len(out) != 40 {
		t.Fatalf("local-only output covers %d sentences", len(out))
	}
	if g.CandidateBase().Len() != 0 {
		t.Fatal("local-only cycle must not build candidates")
	}
}
