package core

import (
	"time"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
)

// This file wires the observability subsystem (internal/obs) through
// the pipeline. Instrumentation follows the zero-overhead contract: a
// Globalizer with no observer carries a nil *pipeObs, and every record
// point below is a single nil-check branch — no clock reads, no
// atomics, no allocations — so the uninstrumented cycle path stays
// within noise of the pre-instrumentation pipeline (pinned by
// BenchmarkCycleObservability). Annotations are byte-identical with
// instrumentation on or off: every hook only reads pipeline state.
//
// Stage metrics map onto the paper's pipeline stages: Local NER
// tagging (stage_local), CTrie mention re-mining (stage_extract),
// phrase embedding (stage_embed), agglomerative clustering
// (stage_cluster), attention pooling (stage_pool), and cluster
// classification (stage_classify). Wall-clock stages observe once per
// cycle; fan-out stages observe once per work unit (surface form in
// the batch engines, cycle in the incremental engine), so sums are
// busy time across workers.

// pipeObs is the pipeline's registered metric set.
type pipeObs struct {
	reg   *obs.Registry
	spans *obs.SpanRecorder

	cycles       *obs.Counter
	cycleSeconds *obs.Histogram

	stageLocal    *obs.Histogram
	stageExtract  *obs.Histogram
	stageSurfaces *obs.Histogram
	stageEmbed    *obs.Histogram
	stageCluster  *obs.Histogram
	stagePool     *obs.Histogram
	stageClassify *obs.Histogram

	sentencesTagged    *obs.Counter
	trieSurfaces       *obs.Counter
	mentionsExtracted  *obs.Counter
	mentionsEmbedded   *obs.Counter
	embedCacheHits     *obs.Counter
	sentencesRescanned *obs.Counter
	scanCacheHits      *obs.Counter
	surfacesProcessed  *obs.Counter
	surfacesReused     *obs.Counter
	clustersFormed     *obs.Counter
	clusterMerges      *obs.Counter
	mergesReplayed     *obs.Counter
	clustersClassified *obs.Counter
	verdictCacheHits   *obs.Counter

	streamSentences *obs.Gauge
	candClusters    *obs.Gauge
	// inferPrecision is an info gauge holding the active tier's index
	// (0 = f64, 1 = f32, 2 = i8) so dashboards can attribute
	// throughput shifts to precision changes.
	inferPrecision *obs.Gauge
	// kernelISA is the dispatched SIMD kernel tier's index (0 =
	// generic, 1 = sse2, 2 = avx2-fma, 3 = neon) — the second axis
	// dashboards need to compare throughput across heterogeneous
	// machines, including mixed amd64/arm64 fleets.
	kernelISA *obs.Gauge

	amortSentences *obs.Gauge
	amortRescanned *obs.Gauge
	amortSurfaces  *obs.Gauge
	amortReused    *obs.Gauge
}

// newPipeObs registers the pipeline metric set on the registry. A nil
// registry yields a nil *pipeObs — the uninstrumented fast path.
func newPipeObs(reg *obs.Registry) *pipeObs {
	if reg == nil {
		return nil
	}
	return &pipeObs{
		reg:   reg,
		spans: obs.NewSpanRecorder(8),

		cycles:       reg.Counter("ner_cycles_total", "execution cycles run (all engines)"),
		cycleSeconds: reg.Histogram("ner_cycle_seconds", "wall time of one execution cycle", nil),

		stageLocal:    reg.Histogram("ner_stage_local_seconds", "Local NER tagging wall time per batch", nil),
		stageExtract:  reg.Histogram("ner_stage_extract_seconds", "CTrie mention re-mining wall time per cycle", nil),
		stageSurfaces: reg.Histogram("ner_stage_surfaces_seconds", "surface fan-out (embed+cluster+classify) wall time per cycle", nil),
		stageEmbed:    reg.Histogram("ner_stage_embed_seconds", "phrase embedding busy time per work unit", nil),
		stageCluster:  reg.Histogram("ner_stage_cluster_seconds", "agglomerative clustering busy time per surface form", nil),
		stagePool:     reg.Histogram("ner_stage_pool_seconds", "attention pooling busy time per candidate cluster", nil),
		stageClassify: reg.Histogram("ner_stage_classify_seconds", "cluster classification busy time per decision", nil),

		sentencesTagged:    reg.Counter("ner_sentences_tagged_total", "sentences run through Local NER tagging"),
		trieSurfaces:       reg.Counter("ner_trie_surfaces_total", "surface forms registered in the CTrie"),
		mentionsExtracted:  reg.Counter("ner_mentions_extracted_total", "mentions mined from the accumulated stream"),
		mentionsEmbedded:   reg.Counter("ner_mentions_embedded_total", "phrase-embedder invocations (embed-cache misses)"),
		embedCacheHits:     reg.Counter("ner_embed_cache_hits_total", "mention embeddings served from the cross-cycle cache"),
		sentencesRescanned: reg.Counter("ner_sentences_rescanned_total", "sentences re-scanned against the CTrie"),
		scanCacheHits:      reg.Counter("ner_scan_cache_hits_total", "sentence scans served from the cross-cycle cache"),
		surfacesProcessed:  reg.Counter("ner_surfaces_processed_total", "surface forms processed by the global phase"),
		surfacesReused:     reg.Counter("ner_surface_outcomes_reused_total", "surface outcomes served from the cross-cycle cache"),
		clustersFormed:     reg.Counter("ner_clusters_formed_total", "candidate clusters produced by agglomerative clustering"),
		clusterMerges:      reg.Counter("ner_cluster_merges_total", "agglomerative merge steps performed"),
		mergesReplayed:     reg.Counter("ner_cluster_merges_replayed_total", "merge steps taken from a surface's recorded merge sequence instead of selected again"),
		clustersClassified: reg.Counter("ner_clusters_classified_total", "cluster type decisions computed"),
		verdictCacheHits:   reg.Counter("ner_cluster_verdict_cache_hits_total", "cluster verdicts served from the membership-signature cache"),

		streamSentences: reg.Gauge("ner_stream_sentences", "sentences in the accumulated stream"),
		candClusters:    reg.Gauge("ner_candidate_clusters", "candidate clusters in the current CandidateBase"),
		inferPrecision:  reg.Gauge("ner_infer_precision", "active inference precision tier (0=f64, 1=f32, 2=i8)"),
		kernelISA:       reg.Gauge("ner_kernel_isa", "dispatched SIMD kernel tier (0=generic, 1=sse2, 2=avx2-fma, 3=neon)"),

		amortSentences: reg.Gauge("ner_amort_sentences", "stream length seen by the most recent amortized cycle"),
		amortRescanned: reg.Gauge("ner_amort_rescanned", "sentences re-scanned in the most recent amortized cycle"),
		amortSurfaces:  reg.Gauge("ner_amort_surfaces", "surface forms processed in the most recent amortized cycle"),
		amortReused:    reg.Gauge("ner_amort_reused", "surface outcomes reused in the most recent amortized cycle"),
	}
}

// SetObserver attaches an observability registry to the pipeline: all
// subsequent cycles record per-stage wall time, item counts, cache
// activity, and per-cycle traces onto it, and the pipeline's worker
// pool registers its dispatch metrics. Passing nil detaches
// instrumentation entirely, restoring the zero-overhead path.
// Annotations are byte-identical either way.
func (g *Globalizer) SetObserver(reg *obs.Registry) {
	g.o = newPipeObs(reg)
	g.pool.SetObserver(reg)
	g.o.setPrecision(g.Precision())
	g.o.setKernelISA()
}

// setKernelISA publishes the dispatched SIMD tier's index on the info
// gauge. Called on attach and after runtime tier switches; the value
// mirrors nn.ActiveSIMD at that moment.
func (o *pipeObs) setKernelISA() {
	if o == nil {
		return
	}
	o.kernelISA.Set(int64(nn.ActiveSIMD()))
}

// setPrecision publishes the active inference tier's index on the
// info gauge.
func (o *pipeObs) setPrecision(p nn.Precision) {
	if o == nil {
		return
	}
	o.inferPrecision.Set(int64(p))
}

// Observer returns the attached registry (nil when uninstrumented).
func (g *Globalizer) Observer() *obs.Registry {
	if g.o == nil {
		return nil
	}
	return g.o.reg
}

// Traces returns the per-cycle stage traces of the most recent cycles
// (nil when uninstrumented).
func (g *Globalizer) Traces() []obs.CycleTrace {
	if g.o == nil {
		return nil
	}
	return g.o.spans.Traces()
}

// now reads the clock only when instrumentation is attached; record
// points pair it with a nil-checked observe so the detached path never
// touches the clock.
func (o *pipeObs) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// beginCycle opens a cycle trace and bumps the cycle counter.
func (o *pipeObs) beginCycle() *obs.Trace {
	if o == nil {
		return nil
	}
	o.cycles.Inc()
	return o.spans.Begin()
}

// localDone records one Local NER batch: tagging wall time, sentences
// tagged, and surfaces newly registered in the CTrie.
func (o *pipeObs) localDone(tr *obs.Trace, t0 time.Time, sentences, newSurfaces int) {
	if o == nil {
		return
	}
	o.stageLocal.Observe(time.Since(t0).Seconds())
	o.sentencesTagged.Add(int64(sentences))
	o.trieSurfaces.Add(int64(newSurfaces))
	tr.Span("local", t0, int64(sentences), 0)
}

// extractDone records one mention re-mining pass: wall time, mentions
// mined, sentences actually re-scanned, and scans served from cache.
func (o *pipeObs) extractDone(tr *obs.Trace, t0 time.Time, mentions, rescanned, cacheHits int) {
	if o == nil {
		return
	}
	o.stageExtract.Observe(time.Since(t0).Seconds())
	o.mentionsExtracted.Add(int64(mentions))
	o.sentencesRescanned.Add(int64(rescanned))
	o.scanCacheHits.Add(int64(cacheHits))
	tr.Span("extract", t0, int64(mentions), 0)
}

// surfacesDone records the per-surface fan-out (embedding, clustering,
// pooling, classification): wall time, surfaces processed, and cached
// outcomes reused.
func (o *pipeObs) surfacesDone(tr *obs.Trace, t0 time.Time, surfaces, reused int) {
	if o == nil {
		return
	}
	o.stageSurfaces.Observe(time.Since(t0).Seconds())
	o.surfacesProcessed.Add(int64(surfaces))
	o.surfacesReused.Add(int64(reused))
	tr.Span("surfaces", t0, int64(surfaces), 0)
}

// cycleDone closes the cycle trace and refreshes the stream gauges.
func (o *pipeObs) cycleDone(tr *obs.Trace, t0 time.Time, streamSentences, candidates int) {
	if o == nil {
		return
	}
	o.cycleSeconds.Observe(time.Since(t0).Seconds())
	o.streamSentences.Set(int64(streamSentences))
	o.candClusters.Set(int64(candidates))
	tr.End()
}

// publishAmort mirrors the most recent cycle's amortStats onto the
// registry gauges, where operators read them.
func (o *pipeObs) publishAmort(st amortStats) {
	if o == nil {
		return
	}
	o.amortSentences.Set(int64(st.Sentences))
	o.amortRescanned.Set(int64(st.Rescanned))
	o.amortSurfaces.Set(int64(st.Surfaces))
	o.amortReused.Set(int64(st.Reused))
}

// clusteringDone records one surface's agglomerative clustering:
// busy time, clusters formed, merge steps (mentions − clusters), and
// how many of those steps were replayed from the surface's recording.
func (o *pipeObs) clusteringDone(t0 time.Time, mentions, clusters, replayed int) {
	if o == nil {
		return
	}
	o.stageCluster.Observe(time.Since(t0).Seconds())
	o.clustersFormed.Add(int64(clusters))
	if merges := mentions - clusters; merges > 0 {
		o.clusterMerges.Add(int64(merges))
	}
	o.mergesReplayed.Add(int64(replayed))
}

// ClusterReplayedShare is the fraction of all merge steps so far that
// were replayed from a recording (0 when uninstrumented or before the
// first merge) — the /statusz readout of how much re-clustering work
// the recordings save.
func (g *Globalizer) ClusterReplayedShare() float64 {
	if g.o == nil {
		return 0
	}
	merges := g.o.clusterMerges.Value()
	if merges == 0 {
		return 0
	}
	return float64(g.o.mergesReplayed.Value()) / float64(merges)
}
