package core

import (
	"reflect"
	"testing"

	"nerglobalizer/internal/mention"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// These tests pin the amortization invariant: every engine produces
// byte-identical output with the cross-cycle caches on or off, at any
// worker count. DeepEqual on the final entity tables AND the candidate
// base demands bit-identical embeddings, cluster assignments and
// confidences, not just matching entity decisions.

// cycleSnapshot captures everything observable after one execution
// cycle.
type cycleSnapshot struct {
	final map[types.SentenceKey][]types.Entity
	cands []*stream.Candidate
}

// runCycles drives ProcessBatch over the stream in fixed-size cycles,
// snapshotting each cycle's output. modeAt lets a test switch ablation
// modes mid-stream (nil = ModeFull throughout).
func runCycles(g *Globalizer, sents []*types.Sentence, batchSize int, cached bool, workers int, modeAt func(cycle int) Mode) []cycleSnapshot {
	g.setCaching(cached)
	g.SetWorkers(workers)
	g.Reset()
	var out []cycleSnapshot
	for ci, b := range stream.Batches(sents, batchSize) {
		mode := ModeFull
		if modeAt != nil {
			mode = modeAt(ci)
		}
		final := g.ProcessBatch(b, mode)
		out = append(out, cycleSnapshot{final: final, cands: g.CandidateBase().All()})
	}
	return out
}

func compareCycles(t *testing.T, name string, got, want []cycleSnapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cycles, want %d", name, len(got), len(want))
	}
	for ci := range want {
		if !reflect.DeepEqual(got[ci].final, want[ci].final) {
			t.Fatalf("%s: final entity table differs at cycle %d", name, ci)
		}
		if !reflect.DeepEqual(got[ci].cands, want[ci].cands) {
			t.Fatalf("%s: candidate clusters differ at cycle %d", name, ci)
		}
	}
}

// TestCachedMatchesUncachedBatchEngine compares multi-cycle
// ProcessBatch runs with amortization on against the scratch
// recomputation, across worker counts.
func TestCachedMatchesUncachedBatchEngine(t *testing.T) {
	g := trainedGlobalizer(t)
	origWorkers := g.Workers()
	defer func() {
		g.SetWorkers(origWorkers)
		g.setCaching(true)
	}()

	test := smallStream("amort", 100, 53)

	// ModeFull is the production path: verify against the uncached
	// reference at several worker counts, and check the caches actually
	// engaged (later cycles reuse surface outcomes and skip re-scans).
	ref := runCycles(g, test.Sentences, 25, false, 1, nil)
	for _, workers := range []int{1, 4} {
		got := runCycles(g, test.Sentences, 25, true, workers, nil)
		compareCycles(t, "ModeFull cached", got, ref)

		st := g.amort.stats
		if st.Sentences != len(test.Sentences) {
			t.Fatalf("stats saw %d sentences, want %d", st.Sentences, len(test.Sentences))
		}
		if st.Reused == 0 {
			t.Fatal("final cycle reused no surface outcomes — amortization never engaged")
		}
		if st.Rescanned >= st.Sentences {
			t.Fatalf("final cycle re-scanned all %d sentences — scan cache never engaged", st.Sentences)
		}
	}
}

// TestCachedModeSwitchMidStream runs ablation cycles in the middle of
// one continuous cached run. The amortizer holds ModeFull state only,
// so those cycles take the scratch recomputation and leave it stale —
// they, and the ModeFull cycles that revalidate after them, must match
// the scratch run exactly.
func TestCachedModeSwitchMidStream(t *testing.T) {
	g := trainedGlobalizer(t)
	origWorkers := g.Workers()
	defer func() {
		g.SetWorkers(origWorkers)
		g.setCaching(true)
	}()

	test := smallStream("amortmode", 80, 59)
	modeAt := func(cycle int) Mode {
		switch cycle {
		case 1:
			return ModeMentionExtraction
		case 2:
			return ModeLocalEmbeddings
		default:
			return ModeFull
		}
	}
	ref := runCycles(g, test.Sentences, 20, false, 1, modeAt)
	got := runCycles(g, test.Sentences, 20, true, 4, modeAt)
	compareCycles(t, "mode switch", got, ref)
}

// TestBatchRepeatsSentenceKey feeds a cycle whose batch holds one
// sentence key twice: the second occurrence replaces a record the same
// batch added, at a position the per-sentence table must already have.
// The stream keeps one record for the key, and the run — that cycle and
// the ones after it — matches the scratch run, which sees the same batch.
func TestBatchRepeatsSentenceKey(t *testing.T) {
	g := trainedGlobalizer(t)
	origWorkers := g.Workers()
	defer func() {
		g.SetWorkers(origWorkers)
		g.setCaching(true)
	}()

	test := smallStream("amortdup", 80, 67)
	dup := *test.Sentences[27]
	dup.Tokens = test.Sentences[5].Tokens
	sents := append(append(append([]*types.Sentence(nil), test.Sentences[:30]...), &dup), test.Sentences[30:]...)

	ref := runCycles(g, sents, 20, false, 1, nil)
	if got, want := g.TweetBase().Len(), len(test.Sentences); got != want {
		t.Fatalf("stream holds %d records, want %d: the repeated key adds none", got, want)
	}
	got := runCycles(g, sents, 20, true, 4, nil)
	compareCycles(t, "repeated key", got, ref)
	if got, want := len(g.amort.rows), len(test.Sentences); got != want {
		t.Fatalf("table holds %d rows for %d records", got, want)
	}
	if rec := g.TweetBase().Get(dup.Key()); !reflect.DeepEqual(rec.Sentence.Tokens, dup.Tokens) {
		t.Fatal("the key's record is not the batch's last occurrence")
	}
}

// TestCachedMatchesUncachedEMD covers the EMD Globalizer comparison
// path, whose per-mention embeddings route through the shared cache.
func TestCachedMatchesUncachedEMD(t *testing.T) {
	g := trainedGlobalizer(t)
	origWorkers := g.Workers()
	defer func() {
		g.SetWorkers(origWorkers)
		g.setCaching(true)
	}()

	test := smallStream("amortemd", 80, 61)
	g.setCaching(false)
	g.SetWorkers(1)
	ref := g.RunEMDGlobalizer(test.Sentences)
	g.setCaching(true)
	g.SetWorkers(4)
	got := g.RunEMDGlobalizer(test.Sentences)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("EMD Globalizer output differs with caching enabled")
	}
}

// TestLateSurfaceInvalidatesScanCache drives the scan cache directly
// through the pathological ordering the token-membership filter
// exists for: a surface form registered in a late cycle ("new york
// city") occurs verbatim in an old, already-cached sentence and must
// force that sentence's re-scan — reshaping its cached mentions — while
// unrelated cached sentences are left untouched.
func TestLateSurfaceInvalidatesScanCache(t *testing.T) {
	g := New(testConfig())

	s0 := &types.Sentence{TweetID: 1, Tokens: []string{"visit", "new", "york", "city", "soon"}}
	s1 := &types.Sentence{TweetID: 2, Tokens: []string{"alpha", "beta", "gamma"}}
	s2 := &types.Sentence{TweetID: 3, Tokens: []string{"talk", "about", "new", "york", "city"}}

	// extract runs one cycle's rescan pass and returns the cached scans
	// concatenated in stream order.
	extract := func(batch []*types.Sentence, newSurfaces [][]string) []types.Mention {
		for _, s := range batch {
			g.tweetBase.Add(&stream.Record{Sentence: s})
		}
		g.amort.grow(g.tweetBase.Len())
		for _, toks := range newSurfaces {
			g.trie.Insert(toks)
		}
		g.amort.rescanPass(g, newSurfaces)
		var out []types.Mention
		for _, row := range g.amort.rows {
			out = append(out, row.scan...)
		}
		return out
	}
	// fullRescan is the ground truth: every sentence against the full
	// trie, concatenated in stream order.
	fullRescan := func() []types.Mention {
		var want []types.Mention
		g.tweetBase.Each(func(r *stream.Record) {
			want = append(want, mention.Extract(r.Sentence, g.trie, r.LocalEntities)...)
		})
		return want
	}

	// Cycle 1: "york" registers and matches s0 at [2,3).
	got := extract([]*types.Sentence{s0}, [][]string{{"york"}})
	if !reflect.DeepEqual(got, fullRescan()) {
		t.Fatal("cycle 1: cached extraction differs from full rescan")
	}
	if len(got) != 1 || got[0].Surface != "york" {
		t.Fatalf("cycle 1: got %v, want one 'york' mention", got)
	}

	// Cycle 2: "alpha" cannot occur in s0 (membership filter misses),
	// so only the batch sentence is scanned.
	got = extract([]*types.Sentence{s1}, [][]string{{"alpha"}})
	if !reflect.DeepEqual(got, fullRescan()) {
		t.Fatal("cycle 2: cached extraction differs from full rescan")
	}
	if st := g.amort.stats; st.Sentences != 2 || st.Rescanned != 1 {
		t.Fatalf("cycle 2: rescanned %d of %d sentences, want 1 of 2", st.Rescanned, st.Sentences)
	}
	s1Scan := g.amort.rows[1].scan

	// Cycle 3: "new york city" arrives late. Its first token occurs in
	// s0, so s0 must be re-scanned — the longer surface now shadows the
	// old "york" match — while s1 stays cached.
	got = extract([]*types.Sentence{s2}, [][]string{{"new", "york", "city"}})
	if !reflect.DeepEqual(got, fullRescan()) {
		t.Fatal("cycle 3: cached extraction differs from full rescan")
	}
	if st := g.amort.stats; st.Sentences != 3 || st.Rescanned != 2 {
		t.Fatalf("cycle 3: rescanned %d of %d sentences, want 2 of 3 (s0 and the batch)", st.Rescanned, st.Sentences)
	}
	for _, m := range got {
		if m.Key == s0.Key() && m.Surface == "york" {
			t.Fatal("cycle 3: stale 'york' mention survived in s0 after 'new york city' registered")
		}
	}
	var sawLong bool
	for _, m := range got {
		if m.Key == s0.Key() && m.Surface == "new york city" {
			sawLong = true
		}
	}
	if !sawLong {
		t.Fatal("cycle 3: s0 was not re-scanned against the late surface")
	}
	if &g.amort.rows[1].scan[0] != &s1Scan[0] {
		t.Fatal("cycle 3: s1 was re-scanned although the filter should have skipped it")
	}
}
