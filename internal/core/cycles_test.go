package core

import (
	"reflect"
	"testing"

	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/stream"
)

func TestCyclesAccumulateState(t *testing.T) {
	g := trainedGlobalizer(t)
	g.Reset()
	test := smallStream("inc", 120, 61)
	batches := stream.Batches(test.Sentences, 40)

	var lastCandidates int
	for i, b := range batches {
		out := g.ProcessTagged(b, nil, ModeFull)
		if len(out) != len(b) {
			t.Fatalf("cycle %d: output covers %d sentences, want the batch's %d", i, len(out), len(b))
		}
		seen := (i + 1) * 40
		if n := len(g.TweetBase().FinalEntityMap()); n != seen {
			t.Fatalf("cycle %d: stream entity map covers %d sentences, want %d", i, n, seen)
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

func TestCyclesMatchRunAtEnd(t *testing.T) {
	g := trainedGlobalizer(t)
	test := smallStream("inc2", 90, 63)
	batches := stream.Batches(test.Sentences, 30)

	g.Reset()
	for _, b := range batches {
		g.ProcessTagged(b, nil, ModeFull)
	}
	got := g.TweetBase().FinalEntityMap()
	runRes := g.Run(test.Sentences, ModeFull)
	// The final incremental output must equal a fresh full run: the
	// global phase always recomputes over the accumulated stream.
	if !reflect.DeepEqual(got, runRes.Final) {
		gf := metrics.Evaluate(test.GoldByKey(), runRes.Final).MacroF1()
		t.Fatalf("incremental final output diverged from batch run (run macro-F1 %.3f)", gf)
	}
}

func TestLocalOnlyCycleBuildsNoCandidates(t *testing.T) {
	g := trainedGlobalizer(t)
	g.Reset()
	test := smallStream("inc3", 40, 65)
	out := g.ProcessTagged(test.Sentences, nil, ModeLocalOnly)
	if len(out) != 40 {
		t.Fatalf("local-only output covers %d sentences", len(out))
	}
	if !reflect.DeepEqual(out, g.TweetBase().LocalEntityMap()) {
		t.Fatal("local-only cycle's entities differ from the stream's local entities")
	}
	if g.CandidateBase().Len() != 0 {
		t.Fatal("local-only cycle must not build candidates")
	}
}
