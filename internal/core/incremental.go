package core

import (
	"sort"
	"time"

	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/mention"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// Incremental is the true streaming engine of the pipeline: unlike
// ProcessBatch (which re-runs the global phase from scratch over the
// accumulated stream every cycle), it maintains per-surface-form
// mention pools and incremental clusters that only grow, re-classifies
// only the clusters that changed in a cycle, and back-mines newly
// discovered surface forms from the sentences already seen — the
// paper's "mention subspace ... can be incrementally updated by adding
// local embeddings into the pool as new mentions of the surface form
// appear".
//
// Its outputs can differ slightly from the batch recomputation (greedy
// incremental clustering versus full agglomerative re-clustering); the
// trade is a per-cycle cost that depends on the batch, not on the full
// stream length.
type Incremental struct {
	g *Globalizer

	// perSurface clustering state.
	clusters map[string]*greedyClusters
	// mentions[surface][i] belongs to cluster assign[surface][i].
	mentions map[string][]types.Mention
	assign   map[string][]int
	// seen indexes every pooled mention by (sentence, span) — spans are
	// matched by one overlap-free scan per sentence, so a (sentence,
	// span) pair identifies a mention uniquely across all surfaces.
	// Keeping the set turns duplicate detection from a linear walk of
	// the surface's pool into one map probe.
	seen map[types.SentenceKey]map[types.Span]bool
	// clusterType caches the decision per (surface, cluster id);
	// invalidated when the cluster gains members.
	clusterType map[string]map[int]types.EntityType
	dirty       map[string]map[int]bool
}

// NewIncremental creates an incremental engine over a trained
// pipeline. It resets the pipeline's stream state.
func NewIncremental(g *Globalizer) *Incremental {
	g.Reset()
	return &Incremental{
		g:           g,
		clusters:    make(map[string]*greedyClusters),
		mentions:    make(map[string][]types.Mention),
		assign:      make(map[string][]int),
		seen:        make(map[types.SentenceKey]map[types.Span]bool),
		clusterType: make(map[string]map[int]types.EntityType),
		dirty:       make(map[string]map[int]bool),
	}
}

// Globalizer returns the wrapped pipeline.
func (inc *Incremental) Globalizer() *Globalizer { return inc.g }

// Cycle consumes one batch of sentences and returns the current final
// entities for every sentence seen so far.
func (inc *Incremental) Cycle(batch []*types.Sentence) map[types.SentenceKey][]types.Entity {
	g := inc.g
	tr := g.o.beginCycle()
	t0 := g.o.now()

	// Local phase: tagger forwards shard across the pool and the
	// TweetBase/CTrie writes replay serially in batch order; localPhase
	// reports which surfaces are new to the CTrie.
	newSurfaces := g.localPhase(batch, tr)

	// Mention discovery: new sentences against the full trie, old
	// sentences against the new surfaces only.
	tx := g.o.now()
	scanned := len(batch)
	localEnts := g.tweetBase.LocalEntityMap()
	var fresh []types.Mention
	fresh = append(fresh, mention.ExtractBatchPool(batch, g.trie, localEnts, g.pool)...)
	if len(newSurfaces) > 0 {
		newTrie := ctrie.New()
		for _, toks := range newSurfaces {
			newTrie.Insert(toks)
		}
		inBatch := make(map[types.SentenceKey]bool, len(batch))
		for _, s := range batch {
			inBatch[s.Key()] = true
		}
		var old []*types.Sentence
		g.tweetBase.Each(func(r *stream.Record) {
			if !inBatch[r.Sentence.Key()] {
				old = append(old, r.Sentence)
			}
		})
		scanned += len(old)
		fresh = append(fresh, mention.ExtractBatchPool(old, newTrie, localEnts, g.pool)...)
	}
	g.o.extractDone(tr, tx, len(fresh), scanned, 0)

	// Grow the per-surface pools and clusters. Deduplication replays the
	// serial scan order first (a later duplicate within the same cycle
	// must be dropped exactly as before); the surviving mentions then
	// embed in parallel — each is a pure function of its record — and
	// the order-dependent incremental cluster Adds stay serial, so
	// cluster ids are identical at any worker count.
	kept := fresh[:0]
	for _, m := range fresh {
		if inc.isDuplicate(m) {
			continue
		}
		inc.markSeen(m)
		kept = append(kept, m)
		inc.mentions[m.Surface] = append(inc.mentions[m.Surface], m)
	}
	tm := g.o.now()
	embs := parallel.MapOrdered(g.pool, len(kept), func(i int) []float64 {
		return g.embedMention(kept[i])
	})
	if g.o != nil {
		g.o.stageEmbed.Observe(time.Since(tm).Seconds())
		tr.Span("embed", tm, int64(len(kept)), 0)
	}
	for i, m := range kept {
		c, ok := inc.clusters[m.Surface]
		if !ok {
			c = &greedyClusters{threshold: g.cfg.ClusterThreshold}
			inc.clusters[m.Surface] = c
			inc.clusterType[m.Surface] = make(map[int]types.EntityType)
			inc.dirty[m.Surface] = make(map[int]bool)
		}
		id := c.Add(embs[i])
		inc.assign[m.Surface] = append(inc.assign[m.Surface], id)
		inc.dirty[m.Surface][id] = true
	}

	// Re-classify dirty clusters only and rebuild the final output.
	ts := g.o.now()
	final := make(map[types.SentenceKey][]types.Mention)
	surfaces := make([]string, 0, len(inc.mentions))
	for s := range inc.mentions {
		surfaces = append(surfaces, s)
	}
	sort.Strings(surfaces)
	for _, surface := range surfaces {
		ms := inc.mentions[surface]
		if g.lacksLocalSupport(ms) {
			continue
		}
		byCluster := make(map[int][]types.Mention)
		for i, m := range ms {
			byCluster[inc.assign[surface][i]] = append(byCluster[inc.assign[surface][i]], m)
		}
		for id, members := range byCluster {
			if inc.dirty[surface][id] {
				et, _ := g.decideClusterType(members, inc.clusters[surface].members[id])
				inc.clusterType[surface][id] = et
				delete(inc.dirty[surface], id)
			} else if g.o != nil {
				g.o.verdictCacheHits.Inc()
			}
			et := inc.clusterType[surface][id]
			if et == types.None {
				continue
			}
			for _, m := range members {
				m.Type = et
				final[m.Key] = append(final[m.Key], m)
			}
		}
	}
	g.o.surfacesDone(tr, ts, len(surfaces), 0)
	g.tweetBase.Each(func(r *stream.Record) {
		r.FinalMentions = resolveOverlaps(final[r.Sentence.Key()])
	})
	g.o.cycleDone(tr, t0, g.tweetBase.Len(), 0)
	return g.tweetBase.FinalEntityMap()
}

// resolveOverlaps keeps a leftmost-longest non-overlapping subset of a
// sentence's mentions. Unlike the batch path — where one trie scan per
// sentence is overlap-free by construction — incremental back-mining
// of new surfaces can propose spans overlapping earlier ones.
func resolveOverlaps(ms []types.Mention) []types.Mention {
	if len(ms) < 2 {
		return ms
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Span.Start != ms[j].Span.Start {
			return ms[i].Span.Start < ms[j].Span.Start
		}
		return ms[i].Span.Len() > ms[j].Span.Len()
	})
	out := ms[:0]
	end := 0
	for _, m := range ms {
		if m.Span.Start >= end {
			out = append(out, m)
			end = m.Span.End
		}
	}
	return out
}

// isDuplicate reports whether the mention (same sentence and span) is
// already pooled.
func (inc *Incremental) isDuplicate(m types.Mention) bool {
	return inc.seen[m.Key][m.Span]
}

// markSeen records the mention in the duplicate index.
func (inc *Incremental) markSeen(m types.Mention) {
	bySpan := inc.seen[m.Key]
	if bySpan == nil {
		bySpan = make(map[types.Span]bool)
		inc.seen[m.Key] = bySpan
	}
	bySpan[m.Span] = true
}

// greedyClusters is this engine's online clustering of one surface's
// mention embeddings: each arrival joins a cluster once and is never
// reassigned. (The batch engines re-run full agglomerative clustering
// through cluster.DistMatrix instead; this greedy pass is what lets a
// cycle's cost depend on the batch alone.)
type greedyClusters struct {
	threshold float64
	// members[c] holds the embeddings assigned to cluster c.
	members [][][]float64
}

// Add assigns emb to the nearest existing cluster if its average
// cosine distance to that cluster's members is below the threshold,
// otherwise it opens a new cluster. It returns the cluster id.
func (c *greedyClusters) Add(emb []float64) int {
	bestID, bestDist := -1, c.threshold
	for id, mem := range c.members {
		total := 0.0
		for _, m := range mem {
			total += nn.CosineDistance(emb, m)
		}
		avg := total / float64(len(mem))
		if avg < bestDist {
			bestID, bestDist = id, avg
		}
	}
	if bestID < 0 {
		c.members = append(c.members, [][]float64{emb})
		return len(c.members) - 1
	}
	c.members[bestID] = append(c.members[bestID], emb)
	return bestID
}
