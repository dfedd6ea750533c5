package core

import (
	"time"

	"nerglobalizer/internal/mention"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// RunEMDGlobalizer runs the predecessor system of the paper — EMD
// Globalizer (Saha Bhowmick et al., ICDE 2022) — using this pipeline's
// trained components. EMD Globalizer performs collective processing
// for entity mention detection only: every surface form receives a
// single global embedding pooled over all of its mentions (no
// candidate clustering, hence no surface-form ambiguity handling), and
// is verified collectively as entity or non-entity.
//
// The paper's Section VI-D reports NER Globalizer improving EMD F1 by
// 7.9% on average over this system, attributing the gain to
// type-aware clustering keeping entity and non-entity mentions of the
// same surface form apart. Running both on the same trained components
// isolates exactly that difference.
//
// Like Run it resets per-stream state first and leaves a stream without
// an amortizer: cycles continuing it run the scratch globalPhase until
// Reset.
func (g *Globalizer) RunEMDGlobalizer(sents []*types.Sentence) map[types.SentenceKey][]types.Entity {
	g.Reset()
	g.amort = nil
	defer clear(g.states)
	tr := g.o.beginCycle(g.tweetBase.Len())
	t0 := g.o.now()
	for _, batch := range stream.Batches(sents, g.cfg.BatchSize) {
		g.localPhase(batch, tr)
	}
	tx := g.o.now()
	var all []*types.Sentence
	g.tweetBase.Each(func(r *stream.Record) { all = append(all, r.Sentence) })
	mentions := mention.ExtractBatchPool(all, g.trie, g.tweetBase.LocalEntityMap(), g.pool)
	groups := mention.GroupBySurface(mentions)
	g.o.extractDone(tr, tx, len(mentions), len(all), 0)

	// Per-surface embedding and collective verification are independent,
	// so they fan out one surface per worker; the merge below replays
	// results in sorted surface order, keeping the output identical to a
	// serial run at any worker count.
	surfaces := sortedKeys(groups)
	ts := g.o.now()
	verdicts := parallel.MapOrdered(g.pool, len(surfaces), func(si int) types.EntityType {
		ms := groups[surfaces[si]]
		if g.lacksLocalSupport(ms) {
			return types.None
		}
		// One pooled candidate per surface form: all mentions together,
		// ambiguity unresolved.
		te := g.o.now()
		embs := make([][]float64, len(ms))
		for i, m := range ms {
			embs[i] = g.embedMention(m)
		}
		if g.o != nil {
			g.o.stageEmbed.Observe(time.Since(te).Seconds())
		}
		tc := g.o.now()
		et, _ := g.classify(embs)
		if g.o != nil {
			g.o.stageClassify.Observe(time.Since(tc).Seconds())
			g.o.clustersClassified.Inc()
		}
		if et == types.None {
			if lv, votes, n := localVote(ms); n >= 2 && float64(votes) >= 0.7*float64(n) {
				et = lv
			}
		}
		return et
	})
	g.o.surfacesDone(tr, ts, len(surfaces), 0)

	out := make(map[types.SentenceKey][]types.Entity)
	for si, surface := range surfaces {
		et := verdicts[si]
		if et == types.None {
			continue
		}
		for _, m := range groups[surface] {
			out[m.Key] = append(out[m.Key], types.Entity{Span: m.Span, Type: et})
		}
	}
	// Sentences with no verified mentions still appear with empty
	// entries so evaluators see every sentence.
	for _, s := range all {
		if _, ok := out[s.Key()]; !ok {
			out[s.Key()] = nil
		}
	}
	g.o.cycleDone(tr, t0, g.tweetBase.Len(), 0)
	return out
}
