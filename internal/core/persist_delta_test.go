package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// warmBytes is a canonical encoding of a warm state for the tests:
// like the snapshot codec it writes a nil and an empty slice the same
// way, so equal bytes here mean equal snapshot payloads.
func warmBytes(t *testing.T, ws *WarmState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ws); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// taggedBatch is one cycle's input with its tag results in hand, so a
// test can feed several engines the same cycle through ProcessTagged.
type taggedBatch struct {
	sents  []*types.Sentence
	tagged []*localner.Result
}

// forceEntities replaces what Local NER found in one crafted sentence
// with the given token spans, all typed Location — the way to make a
// surface form register in the trie at a chosen cycle.
func forceEntities(res *localner.Result, spans ...types.Span) {
	res.Entities = nil
	for _, sp := range spans {
		res.Entities = append(res.Entities, types.Entity{Span: sp, Type: types.Location})
	}
}

// deltaStream builds a recurrent stream whose crafted sentences make
// longer surfaces arrive late: "york" registers first and matches
// inside "new york" sentences, "delta" only ever occurs inside "delta
// force"; when the longer forms register, old sentences re-scan, the
// "york" pool loses interior mentions, the "new york" pool is spliced
// together out of old sentences, and the "delta" pool empties.
func deltaStream(g *Globalizer) []taggedBatch {
	sents := smallStream("persist-delta", 160, 95).Sentences
	crafted := map[int][]string{
		0: {"flights", "to", "new", "york", "are", "late"},
		1: {"delta", "force", "lands", "in", "york"},
		2: {"york", "minster", "reopens", "today"},
		4: {"snow", "in", "new", "york", "again"},
		5: {"the", "delta", "force", "trains", "at", "dawn"},
		9: {"she", "moved", "to", "new", "york", "last", "year"},
		// Late arrivals of the longer surfaces.
		11: {"new", "york", "votes", "tomorrow"},
		14: {"delta", "force", "returns", "home"},
		17: {"york", "and", "new", "york", "are", "far", "apart"},
	}
	forced := map[int][]types.Span{
		0: {{Start: 3, End: 4}}, 1: {{Start: 0, End: 1}, {Start: 4, End: 5}}, 2: {{Start: 0, End: 1}},
		4: {{Start: 3, End: 4}}, 5: {{Start: 1, End: 2}}, 9: {{Start: 4, End: 5}},
		11: {{Start: 0, End: 2}}, 14: {{Start: 0, End: 2}}, 17: {{Start: 0, End: 1}, {Start: 2, End: 4}},
	}
	var out []taggedBatch
	for ci, b := range stream.Batches(sents, 8) {
		b = append([]*types.Sentence(nil), b...)
		if toks, ok := crafted[ci]; ok {
			b = append(b, &types.Sentence{TweetID: 100000 + ci, Tokens: toks})
		}
		tagged := g.TagBatch(b)
		if spans, ok := forced[ci]; ok {
			forceEntities(tagged[len(tagged)-1], spans...)
		}
		out = append(out, taggedBatch{sents: b, tagged: tagged})
	}
	return out
}

// TestWarmDeltaChainByteIdentical is the delta-capture contract. Two
// identically fed engines capture at the same, randomly spaced cycles:
// one full states, the other a base and then deltas. After every
// capture the base with its deltas applied encodes to the bytes of the
// full capture, and an engine restored from a merged state finishes
// the stream exactly like the uninterrupted run.
func TestWarmDeltaChainByteIdentical(t *testing.T) {
	g := trainedGlobalizer(t)
	full := g.WithClusterThreshold(g.Config().ClusterThreshold)
	chain := g.WithClusterThreshold(g.Config().ClusterThreshold)
	batches := deltaStream(g)

	rng := rand.New(rand.NewSource(7))
	next := 1 + rng.Intn(3)
	var (
		base      *WarmState
		deltas    int
		answers   []map[types.SentenceKey][]types.Entity
		resumeAt  = -1
		resumeCut []byte
		sawAppend bool
		sawSplice bool
		sawDelete bool
	)
	for ci, b := range batches {
		want := full.ProcessTagged(b.sents, b.tagged, ModeFull)
		got := chain.ProcessTagged(b.sents, b.tagged, ModeFull)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cycle %d: the two engines disagree before any restore", ci)
		}
		answers = append(answers, want)
		if ci != next {
			continue
		}
		next += 1 + rng.Intn(4)

		ws := full.CaptureWarmState()
		if ws.Amort == nil {
			t.Fatalf("cycle %d: full capture lost the amortizer state", ci)
		}
		if base == nil {
			base = chain.CaptureWarmState()
		} else {
			d := chain.CaptureWarmDelta()
			if d == nil {
				t.Fatalf("cycle %d: no delta from a cleanly cached engine", ci)
			}
			if len(d.Records) >= len(ws.Records) {
				t.Fatalf("cycle %d: delta carries %d of %d records", ci, len(d.Records), len(ws.Records))
			}
			for _, p := range d.Pools {
				if p.PoolFrom > 0 && len(p.Pool) > 0 {
					sawAppend = true
				}
				if p.PoolFrom == 0 && (p.Surface == "york" || p.Surface == "new york") {
					sawSplice = true
				}
			}
			for _, s := range d.Deleted {
				if s == "delta" {
					sawDelete = true
				}
			}
			if err := base.Apply(d); err != nil {
				t.Fatalf("cycle %d: %v", ci, err)
			}
			deltas++
		}
		if !bytes.Equal(warmBytes(t, base), warmBytes(t, ws)) {
			t.Fatalf("cycle %d: base + %d deltas does not encode to the full capture", ci, deltas)
		}
		if resumeAt < 0 && deltas >= 3 {
			resumeAt, resumeCut = ci, warmBytes(t, base)
		}
	}
	if deltas < 6 || resumeAt < 0 {
		t.Fatalf("only %d deltas captured: the case needs a chain", deltas)
	}
	if !sawAppend || !sawSplice || !sawDelete {
		t.Fatalf("between captures the stream must grow a pool (%v), splice one (%v) and empty one (%v)", sawAppend, sawSplice, sawDelete)
	}

	// Restore a third engine from the merged state as a decoder would
	// hand it over, and finish the stream.
	var merged WarmState
	if err := gob.NewDecoder(bytes.NewReader(resumeCut)).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	resumed := g.WithClusterThreshold(g.Config().ClusterThreshold)
	if err := resumed.RestoreWarmState(&merged); err != nil {
		t.Fatal(err)
	}
	for ci := resumeAt + 1; ci < len(batches); ci++ {
		b := batches[ci]
		if got := resumed.ProcessTagged(b.sents, b.tagged, ModeFull); !reflect.DeepEqual(answers[ci], got) {
			t.Fatalf("cycle %d answers diverged after a resume from base + deltas", ci)
		}
	}
	if !reflect.DeepEqual(full.tweetBase.FinalEntityMap(), resumed.tweetBase.FinalEntityMap()) {
		t.Fatal("final entity map diverged after a resume from base + deltas")
	}
	if !reflect.DeepEqual(full.candBase.All(), resumed.candBase.All()) {
		t.Fatal("candidate base diverged after a resume from base + deltas")
	}
}

// TestWarmDeltaRefusesWhatItCannotExpress checks when CaptureWarmDelta
// returns nil. Before any full capture there is nothing to extend, and a
// full capture re-arms delta capture. A cycle with caching off and a
// replaced sentence each drop the amortizer: from then on until Reset
// the stream runs the scratch path, so there is no delta and no Amort,
// and the annotations are the scratch run's.
func TestWarmDeltaRefusesWhatItCannotExpress(t *testing.T) {
	g := trainedGlobalizer(t)
	engine := func() *Globalizer { return g.WithClusterThreshold(g.Config().ClusterThreshold) }
	batches := stream.Batches(smallStream("persist-delta-nil", 90, 97).Sentences, 10)
	e := engine()
	cycle := func(e *Globalizer, i int) { e.ProcessTagged(batches[i], nil, ModeFull) }

	cycle(e, 0)
	if e.CaptureWarmDelta() != nil {
		t.Fatal("delta captured before any full capture")
	}
	if e.CaptureWarmState().Amort == nil {
		t.Fatal("clean capture lost the amortizer state")
	}
	cycle(e, 1)
	if e.CaptureWarmDelta() == nil {
		t.Fatal("no delta after a plain cached cycle")
	}
	base := e.CaptureWarmState()
	cycle(e, 2)
	d := e.CaptureWarmDelta()
	if d == nil {
		t.Fatal("the full capture did not re-arm delta capture")
	}
	if err := base.Apply(d); err != nil {
		t.Fatal(err)
	}
	if want := e.CaptureWarmState(); !bytes.Equal(warmBytes(t, base), warmBytes(t, want)) {
		t.Fatal("base + delta after the re-arm does not encode to the full capture")
	}
	// A delta only extends the state it was captured against.
	if err := base.Apply(d); err == nil {
		t.Fatal("a delta applied twice must be rejected")
	}

	dup := *batches[0][0]
	for _, leg := range []struct {
		name  string
		batch []*types.Sentence
		off   bool
	}{
		{"a cycle with caching off", batches[3], true},
		{"a replaced sentence", []*types.Sentence{&dup}, false},
	} {
		e, ref := engine(), engine()
		ref.setCaching(false)
		for i := 0; i < 3; i++ {
			cycle(e, i)
			cycle(ref, i)
		}
		e.CaptureWarmState()
		e.setCaching(!leg.off)
		e.ProcessTagged(leg.batch, nil, ModeFull)
		e.setCaching(true)
		ref.ProcessTagged(leg.batch, nil, ModeFull)
		for i := 4; i < 6; i++ {
			if e.CaptureWarmDelta() != nil {
				t.Fatalf("%s: delta captured %d cycles after it", leg.name, i-4)
			}
			if e.CaptureWarmState().Amort != nil {
				t.Fatalf("%s: full capture %d cycles after it holds amortizer state", leg.name, i-4)
			}
			cycle(e, i)
			cycle(ref, i)
		}
		if !reflect.DeepEqual(ref.tweetBase.FinalEntityMap(), e.tweetBase.FinalEntityMap()) {
			t.Fatalf("%s: final entity map differs from the scratch run", leg.name)
		}
		if !reflect.DeepEqual(ref.candBase.All(), e.candBase.All()) {
			t.Fatalf("%s: candidate base differs from the scratch run", leg.name)
		}
		e.Reset()
		cycle(e, 0)
		if e.CaptureWarmState().Amort == nil {
			t.Fatalf("%s: the engine did not hold an amortizer again after Reset", leg.name)
		}
	}
}
