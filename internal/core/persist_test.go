package core

import (
	"bytes"
	"reflect"
	"testing"

	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// TestWarmStateResumeByteIdentical is the core durability contract: a
// stream processed half-way, captured, restored and continued must
// produce exactly the annotations of the uninterrupted run — both the
// per-batch answers and the final whole-stream state. The state it
// restores first is a quarter-way capture with a delta applied, which
// must stand in for the half-way capture in every respect.
func TestWarmStateResumeByteIdentical(t *testing.T) {
	g := trainedGlobalizer(t)
	sents := smallStream("persist", 120, 91).Sentences
	batches := stream.Batches(sents, 10)
	half := len(batches) / 2

	// Uninterrupted run, capturing warm state at the half-way point.
	g.Reset()
	var refAnswers []map[types.SentenceKey][]types.Entity
	var ws, merged *WarmState
	for i, b := range batches {
		refAnswers = append(refAnswers, g.ProcessTagged(b, nil, ModeFull))
		if i == half/2-1 {
			merged = g.CaptureWarmState()
		}
		if i == half-1 {
			d := g.CaptureWarmDelta()
			if d == nil {
				t.Fatal("no delta between two clean captures")
			}
			if err := merged.Apply(d); err != nil {
				t.Fatal(err)
			}
			ws = g.CaptureWarmState()
		}
	}
	refFinal := g.tweetBase.FinalEntityMap()
	refCands := g.candBase.Len()

	if ws.Amort == nil {
		t.Fatal("clean mid-stream capture lost the amortizer state")
	}

	if !bytes.Equal(warmBytes(t, merged), warmBytes(t, ws)) {
		t.Fatal("quarter-way capture + delta does not encode to the half-way capture")
	}

	// Restore and continue.
	if err := g.RestoreWarmState(merged); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(batches); i++ {
		got := g.ProcessTagged(batches[i], nil, ModeFull)
		if !reflect.DeepEqual(refAnswers[i], got) {
			t.Fatalf("batch %d answers diverged after warm resume", i)
		}
	}
	if !reflect.DeepEqual(refFinal, g.tweetBase.FinalEntityMap()) {
		t.Fatal("final entity map diverged after warm resume")
	}
	if g.candBase.Len() != refCands {
		t.Fatalf("candidate count diverged: %d vs %d", g.candBase.Len(), refCands)
	}
	// The first resumed cycle must actually be warm: only the new batch
	// re-scans, not the whole restored stream.
	if st := g.amort.stats; st.Rescanned >= st.Sentences {
		t.Fatalf("resume ran cold: rescanned %d of %d", st.Rescanned, st.Sentences)
	}

	// The cold-amortizer fallback (Amort == nil) must still be
	// byte-identical — the caches are speed, not truth.
	ws.Amort = nil
	if err := g.RestoreWarmState(ws); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(batches); i++ {
		got := g.ProcessTagged(batches[i], nil, ModeFull)
		if !reflect.DeepEqual(refAnswers[i], got) {
			t.Fatalf("batch %d answers diverged after cold-amort resume", i)
		}
	}
	if !reflect.DeepEqual(refFinal, g.tweetBase.FinalEntityMap()) {
		t.Fatal("final entity map diverged after cold-amort resume")
	}
}

// TestWarmResumeReclustersWithoutRecording pins what a restore does to
// the merge recordings: they are not part of the warm state, so the
// first cycle after a restore re-clusters every dirty surface from
// singletons (nothing replayed) where the uninterrupted run replayed
// recorded prefixes — and still performs the same merges and returns
// the same annotations; from the second cycle on it replays again.
func TestWarmResumeReclustersWithoutRecording(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.SetObserver(nil)
	sents := smallStream("persist-replay", 120, 93).Sentences
	batches := stream.Batches(sents, 10)
	half := len(batches) / 2

	// run feeds batches[from:] and returns, per cycle, the answers and
	// the cycle's (merges, replayed) counter increments.
	type cycle struct {
		answers          map[types.SentenceKey][]types.Entity
		merges, replayed int64
	}
	run := func(from, captureAfter int) ([]cycle, *WarmState) {
		reg := obs.NewRegistry()
		g.SetObserver(reg)
		var out []cycle
		var ws *WarmState
		var merges, replayed int64
		for i := from; i < len(batches); i++ {
			c := cycle{answers: g.ProcessTagged(batches[i], nil, ModeFull)}
			cs := reg.Snapshot().Counters
			c.merges = cs["ner_cluster_merges_total"] - merges
			c.replayed = cs["ner_cluster_merges_replayed_total"] - replayed
			merges, replayed = cs["ner_cluster_merges_total"], cs["ner_cluster_merges_replayed_total"]
			out = append(out, c)
			if i == captureAfter {
				ws = g.CaptureWarmState()
			}
		}
		return out, ws
	}

	g.Reset()
	ref, ws := run(0, half-1)
	if err := g.RestoreWarmState(ws); err != nil {
		t.Fatal(err)
	}
	resumed, _ := run(half, -1)

	for k, got := range resumed {
		want := ref[half+k]
		if !reflect.DeepEqual(want.answers, got.answers) {
			t.Fatalf("cycle %d answers diverged after warm resume", half+k)
		}
		if got.merges != want.merges {
			t.Fatalf("cycle %d: %d merges after resume, %d uninterrupted", half+k, got.merges, want.merges)
		}
	}
	if ref[half].replayed == 0 || ref[half].merges == 0 {
		t.Fatalf("uninterrupted cycle %d replayed %d of %d merges: the case needs a warm cycle that replays",
			half, ref[half].replayed, ref[half].merges)
	}
	if resumed[0].replayed != 0 {
		t.Fatalf("first cycle after restore replayed %d merges from recordings that cannot exist", resumed[0].replayed)
	}
	if resumed[1].replayed == 0 {
		t.Fatal("second cycle after restore replayed nothing: recordings were not rebuilt")
	}
}

// TestWarmStateRejectsMismatchedEngine checks the restore guards.
func TestWarmStateRejectsMismatchedEngine(t *testing.T) {
	g := trainedGlobalizer(t)
	g.Reset()
	g.ProcessTagged(smallStream("persist-guard", 10, 92).Sentences, nil, ModeFull)
	ws := g.CaptureWarmState()

	bad := *ws
	bad.Precision = "i8"
	if err := g.RestoreWarmState(&bad); err == nil {
		t.Fatal("precision mismatch accepted")
	}
	bad = *ws
	bad.ShardCount = 4
	if err := g.RestoreWarmState(&bad); err == nil {
		t.Fatal("shard-ownership mismatch accepted")
	}
	// The amortizer caches the complete pipeline's outcomes only; a
	// capture or a delta that claims another mode is not one of ours.
	bad = *ws
	amort := *ws.Amort
	amort.Mode = int(ModeLocalEmbeddings)
	bad.Amort = &amort
	if err := g.RestoreWarmState(&bad); err == nil {
		t.Fatal("amortizer state of an ablation mode accepted")
	}
	if err := ws.Apply(&WarmDelta{BaseRecords: len(ws.Records), Mode: int(ModeMentionExtraction)}); err == nil {
		t.Fatal("delta of an ablation mode accepted")
	}
	// A pooled mention must be of a sentence the state holds.
	bad = *ws
	amort = *ws.Amort
	amort.Surfaces = append([]SurfaceState(nil), amort.Surfaces...)
	for i := range amort.Surfaces {
		if st := &amort.Surfaces[i]; !st.Skip && len(st.Pool) > 0 {
			st.Pool = append([]types.Mention(nil), st.Pool...)
			st.Pool[0].Key.TweetID = -7
			break
		}
	}
	bad.Amort = &amort
	if err := g.RestoreWarmState(&bad); err == nil {
		t.Fatal("pool over an unknown sentence accepted")
	}
	// The guards must not have wrecked the engine: a clean restore
	// still works.
	if err := g.RestoreWarmState(ws); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureWhileCachingDisabled: capture with caching off yields a
// nil Amort, and restore falls back cleanly.
func TestCaptureWhileCachingDisabled(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.setCaching(true)
	g.setCaching(false)
	g.Reset()
	sents := smallStream("persist-nocache", 20, 93).Sentences
	batches := stream.Batches(sents, 10)
	ref := g.ProcessTagged(batches[0], nil, ModeFull)
	ws := g.CaptureWarmState()
	if ws.Amort != nil {
		t.Fatal("cache-off capture produced amortizer state")
	}
	if err := g.RestoreWarmState(ws); err != nil {
		t.Fatal(err)
	}
	// Replaying the same batch over the restored state must answer the
	// same (idempotent re-ingestion is the fleet's replay contract).
	_ = ref
	got := g.ProcessTagged(batches[1], nil, ModeFull)
	g.setCaching(true)

	// Against a from-scratch run of both batches.
	g.Reset()
	g.ProcessTagged(batches[0], nil, ModeFull)
	want := g.ProcessTagged(batches[1], nil, ModeFull)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cache-off capture/restore diverged from scratch run")
	}
}
