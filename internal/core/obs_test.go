package core

import (
	"reflect"
	"strings"
	"testing"

	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// These tests pin the observability contract: attaching a registry
// never changes annotations (every hook only reads pipeline state),
// the registered metric set covers the paper's stages plus the caches
// and the pool, and the detached path records nothing.

// runObserved drives ProcessBatch over the stream and returns the
// per-cycle final entity tables.
func runObserved(g *Globalizer, sents []*types.Sentence, batchSize int, reg *obs.Registry) []map[types.SentenceKey][]types.Entity {
	g.SetObserver(reg)
	g.Reset()
	var out []map[types.SentenceKey][]types.Entity
	for _, b := range stream.Batches(sents, batchSize) {
		out = append(out, g.ProcessBatch(b, ModeFull))
	}
	return out
}

func TestObserverDoesNotChangeAnnotations(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.SetObserver(nil)
	sents := smallStream("obs-ident", 120, 91).Sentences

	for _, cached := range []bool{true, false} {
		g.setCaching(cached)
		plain := runObserved(g, sents, 30, nil)
		instrumented := runObserved(g, sents, 30, obs.NewRegistry())
		if len(plain) != len(instrumented) {
			t.Fatalf("cached=%v: cycle counts differ", cached)
		}
		for ci := range plain {
			if !reflect.DeepEqual(plain[ci], instrumented[ci]) {
				t.Fatalf("cached=%v: annotations differ at cycle %d with observer attached", cached, ci)
			}
		}
	}

	// The EMD engine shares the hooks; pin it too.
	g.setCaching(true)
	emdPlain := g.RunEMDGlobalizer(sents)
	g.SetObserver(obs.NewRegistry())
	emdObserved := g.RunEMDGlobalizer(sents)
	if !reflect.DeepEqual(emdPlain, emdObserved) {
		t.Fatal("EMD engine annotations differ with observer attached")
	}

}

func TestObserverRecordsPipelineActivity(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.SetObserver(nil)
	sents := smallStream("obs-activity", 120, 92).Sentences

	reg := obs.NewRegistry()
	g.setCaching(true)
	runObserved(g, sents, 30, reg)
	// Re-submit the first batch: replacing records invalidates their
	// sentences and clears every cached surface outcome, so the rebuild
	// re-embeds mention pools through the embed cache — the
	// deterministic cache-hit path (append-only growth reuses embedding
	// prefixes without consulting the cache at all).
	g.ProcessBatch(sents[:30], ModeFull)

	s := reg.Snapshot()
	st := g.amort.stats

	if got := s.Counters["ner_cycles_total"]; got != 5 {
		t.Fatalf("ner_cycles_total = %d, want 5", got)
	}
	if got := s.Counters["ner_sentences_tagged_total"]; got < 120 {
		t.Fatalf("ner_sentences_tagged_total = %d, want >= 120", got)
	}
	for _, name := range []string{
		"ner_mentions_extracted_total",
		"ner_mentions_embedded_total",
		"ner_surfaces_processed_total",
		"ner_clusters_formed_total",
		"ner_clusters_classified_total",
		"ner_trie_surfaces_total",
		"ner_sentences_rescanned_total",
		"ner_pool_tasks_total",
	} {
		if s.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, s.Counters[name])
		}
	}
	// Pools that grew across cycles re-clustered by replaying their
	// recorded merge prefixes; the share is the two counters' ratio.
	merges, replayed := s.Counters["ner_cluster_merges_total"], s.Counters["ner_cluster_merges_replayed_total"]
	if replayed <= 0 || replayed > merges {
		t.Errorf("ner_cluster_merges_replayed_total = %d of %d merges, want in (0, merges]", replayed, merges)
	}
	if got, want := g.ClusterReplayedShare(), float64(replayed)/float64(merges); got != want {
		t.Errorf("ClusterReplayedShare = %v, want %v", got, want)
	}
	// Cross-cycle caches must have produced hits over a 4-cycle replay
	// of a mostly unchanged stream.
	if s.Counters["ner_embed_cache_hits_total"] <= 0 {
		t.Error("embed cache recorded no hits over a warm replay")
	}
	if s.Counters["ner_scan_cache_hits_total"] <= 0 {
		t.Error("scan cache recorded no hits over a warm replay")
	}
	// The amortizer's stats and the registry gauges are the same numbers.
	if got := s.Gauges["ner_amort_sentences"]; got != int64(st.Sentences) {
		t.Errorf("ner_amort_sentences = %d, amort.stats.Sentences = %d", got, st.Sentences)
	}
	if got := s.Gauges["ner_amort_reused"]; got != int64(st.Reused) {
		t.Errorf("ner_amort_reused = %d, amort.stats.Reused = %d", got, st.Reused)
	}
	if got := s.Gauges["ner_stream_sentences"]; got != int64(g.TweetBase().Len()) {
		t.Errorf("ner_stream_sentences = %d, TweetBase.Len = %d", got, g.TweetBase().Len())
	}

	// Stage histograms observed real durations.
	for _, name := range []string{
		"ner_stage_local_seconds",
		"ner_stage_extract_seconds",
		"ner_stage_surfaces_seconds",
		"ner_stage_embed_seconds",
		"ner_stage_cluster_seconds",
		"ner_stage_classify_seconds",
		"ner_cycle_seconds",
	} {
		h := s.Histograms[name]
		if h.Count <= 0 || h.Sum <= 0 {
			t.Errorf("histogram %s: count=%d sum=%v, want observations", name, h.Count, h.Sum)
		}
	}

	// The acceptance floor: at least 12 distinct metrics spanning the
	// subsystems, all exposable as valid Prometheus text.
	if reg.Len() < 12 {
		t.Fatalf("registry has %d metrics, want >= 12", reg.Len())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ner_cycle_seconds_bucket{le=\"+Inf\"}") {
		t.Fatal("exposition missing histogram series")
	}

	// Per-cycle traces carry the stage spans.
	traces := g.Traces()
	if len(traces) != 5 {
		t.Fatalf("recorded %d traces, want 5", len(traces))
	}
	last := traces[len(traces)-1]
	stages := map[string]bool{}
	for _, sp := range last.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"local", "extract", "surfaces"} {
		if !stages[want] {
			t.Errorf("last cycle trace missing stage %q (have %v)", want, last.Spans)
		}
	}
	if last.WallSec <= 0 {
		t.Error("cycle trace has zero wall time")
	}

	// Detaching stops recording.
	g.SetObserver(nil)
	before := reg.Snapshot().Counters["ner_cycles_total"]
	g.ProcessBatch(sents[:10], ModeFull)
	if after := reg.Snapshot().Counters["ner_cycles_total"]; after != before {
		t.Fatalf("detached pipeline still recorded cycles: %d -> %d", before, after)
	}
	if g.Observer() != nil || g.Traces() != nil {
		t.Fatal("detached pipeline still reports an observer")
	}
}

// BenchmarkCycleObservability compares the continuous-execution cycle
// with instrumentation detached (the nil-registry fast path, which
// must stay within noise of the pre-instrumentation pipeline) and
// attached (the full metric set plus per-cycle traces).
func BenchmarkCycleObservability(b *testing.B) {
	g := trainedGlobalizer(b)
	defer g.SetObserver(nil)
	sents := smallStream("obs-bench", 240, 93).Sentences
	batches := stream.Batches(sents, 40)

	for _, bench := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"nil-registry", nil},
		{"instrumented", obs.NewRegistry()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			g.SetObserver(bench.reg)
			g.setCaching(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				for _, batch := range batches {
					g.ProcessBatch(batch, ModeFull)
				}
			}
		})
	}
}
