package core

import (
	"fmt"
	"sort"
	"strings"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// This file materializes the engine's per-stream state into a flat,
// serializable form (WarmState) and rebuilds the engine from it — the
// core half of the durability layer. internal/durable owns the on-disk
// encoding; this file owns what is captured and how it is reinstalled.
//
// The amortization invariant ("byte-identical with caching on or off")
// is the safety net: everything in AmortState is a cache over the
// records and trie, so RestoreWarmState only has to choose between
// reinstalling those caches exactly or discarding them (Amort == nil),
// in which case the next cycle falls back to a full recompute that
// produces the same annotations, just without the warm speed.
//
// Capture is synchronous: every map is flattened into slices under the
// caller's lock, so the returned WarmState can be encoded to disk
// concurrently with later cycles. Leaf slices alias live engine data —
// token slices, embedding vectors and record matrices are immutable
// once published, and mention pools only ever grow in place or are
// replaced wholesale, so a captured slice header keeps its bytes.

// RecordState is one TweetBase record in serializable form.
type RecordState struct {
	TweetID, SentID int
	Tokens          []string
	Gold            []types.Entity
	Local           []types.Entity
	Emb             *nn.Matrix
	Final           []types.Mention
}

// ScanState is one sentence's cached trie-scan result.
type ScanState struct {
	Key      types.SentenceKey
	Mentions []types.Mention
}

// MentionEmbed is one cached local mention embedding.
type MentionEmbed struct {
	Key  types.SentenceKey
	Span types.Span
	Vec  []float64
}

// CandState is one candidate cluster of a surface outcome, with its
// members as indices into the surface's mention pool.
type CandState struct {
	ClusterID int
	Members   []int
	GlobalEmb []float64
	Type      types.EntityType
	Conf      float64
}

// SurfaceState is one surface form's cached amortization state: its
// mention pool and its finished outcome.
type SurfaceState struct {
	Surface string
	Pool    []types.Mention
	Skip    bool
	Cands   []CandState
}

// AmortState is the amortizer's cross-cycle cache state, captured only
// when the amortizer is clean (see captureAmort). Everything here is
// derivable from the records and trie — restoring it buys warm-resume
// speed, not correctness.
type AmortState struct {
	ScannedLen, TrieLen, MentionCount int
	Mode                              int
	Scans                             []ScanState
	Surfaces                          []SurfaceState
	Embeds                            []MentionEmbed
}

// WarmState is the engine's complete per-stream state in serializable
// form. Amort is nil when the amortizer was not cleanly capturable; the
// restored engine then rebuilds its caches on the next cycle.
type WarmState struct {
	Precision              string
	ShardIndex, ShardCount int
	Surfaces               []string
	Records                []RecordState
	Amort                  *AmortState
}

// CaptureWarmState snapshots the per-stream state. The caller must hold
// whatever lock serializes cycles on this engine; the returned value is
// safe to encode concurrently with later cycles.
func (g *Globalizer) CaptureWarmState() *WarmState {
	ws := &WarmState{
		Precision:  g.Precision().String(),
		ShardIndex: g.shardIndex,
		ShardCount: g.shardCount,
		Surfaces:   g.trie.Surfaces(),
	}
	sort.Strings(ws.Surfaces)
	ws.Records = make([]RecordState, 0, g.tweetBase.Len())
	g.tweetBase.Each(func(r *stream.Record) {
		ws.Records = append(ws.Records, RecordState{
			TweetID: r.Sentence.TweetID,
			SentID:  r.Sentence.SentID,
			Tokens:  r.Sentence.Tokens,
			Gold:    r.Sentence.Gold,
			Local:   r.LocalEntities,
			Emb:     r.Embeddings,
			Final:   r.FinalMentions,
		})
	})
	ws.Amort = g.captureAmort()
	return ws
}

// captureAmort flattens the amortizer, or returns nil when its state is
// not cleanly capturable: caching off, a non-ModeFull last cycle, stale
// or dirty bookkeeping, or any internal inconsistency. nil is always
// safe — restore falls back to a cold amortizer over warm records.
func (g *Globalizer) captureAmort() *AmortState {
	a := g.amort
	if g.cfg.DisableCache || !a.haveMode || a.lastMode != ModeFull || a.stale ||
		len(a.dirty) != 0 || len(a.finalDirty) != 0 ||
		a.scannedLen != g.tweetBase.Len() || a.trieLen != g.trie.Len() ||
		len(a.surfaces) != len(a.pools) {
		return nil
	}
	as := &AmortState{
		ScannedLen:   a.scannedLen,
		TrieLen:      a.trieLen,
		MentionCount: a.mentionCount,
		Mode:         int(a.lastMode),
	}
	keys := g.tweetBase.Keys()
	as.Scans = make([]ScanState, 0, len(keys))
	for _, key := range keys {
		ms, ok := a.scans[key]
		if !ok {
			return nil
		}
		as.Scans = append(as.Scans, ScanState{Key: key, Mentions: ms})
	}

	surfs := make([]string, 0, len(a.pools))
	for s := range a.pools {
		surfs = append(surfs, s)
	}
	sort.Strings(surfs)
	as.Surfaces = make([]SurfaceState, 0, len(surfs))
	for _, s := range surfs {
		sa := a.surfaces[s]
		pool := a.pools[s]
		if sa == nil || !mentionsEqual(sa.mentions, pool) {
			return nil
		}
		st := SurfaceState{Surface: s, Pool: pool, Skip: sa.outcome.skip}
		if !sa.outcome.skip {
			// Invert the outcome's mention values back to pool indices;
			// (sentence, span) identifies a pool entry uniquely.
			idx := make(map[types.SentenceKey]map[types.Span]int, len(pool))
			for i, m := range pool {
				bySpan := idx[m.Key]
				if bySpan == nil {
					bySpan = make(map[types.Span]int, 2)
					idx[m.Key] = bySpan
				}
				bySpan[m.Span] = i
			}
			for _, cand := range sa.outcome.cands {
				cs := CandState{
					ClusterID: cand.ClusterID,
					GlobalEmb: cand.GlobalEmb,
					Type:      cand.Type,
					Conf:      cand.Confidence,
				}
				for _, m := range cand.Mentions {
					i, ok := idx[m.Key][m.Span]
					if !ok {
						return nil
					}
					cs.Members = append(cs.Members, i)
				}
				st.Cands = append(st.Cands, cs)
			}
		}
		as.Surfaces = append(as.Surfaces, st)
	}

	// Flatten the embedding cache in stream order, spans ascending, so
	// snapshot bytes are deterministic for a given engine state.
	a.embeds.mu.RLock()
	for _, key := range keys {
		bySpan := a.embeds.m[key]
		if len(bySpan) == 0 {
			continue
		}
		spans := make([]types.Span, 0, len(bySpan))
		for sp := range bySpan {
			spans = append(spans, sp)
		}
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End < spans[j].End
		})
		for _, sp := range spans {
			as.Embeds = append(as.Embeds, MentionEmbed{Key: key, Span: sp, Vec: bySpan[sp]})
		}
	}
	a.embeds.mu.RUnlock()
	return as
}

// RestoreWarmState rebuilds the per-stream state from a capture. The
// engine must already be configured identically to the one that
// captured (precision tier, shard ownership); per-stream state is
// discarded and replaced. After restore, continued cycles produce
// byte-identical annotations to the uninterrupted run.
func (g *Globalizer) RestoreWarmState(ws *WarmState) error {
	if ws.Precision != g.Precision().String() {
		return fmt.Errorf("core: warm state captured at precision %q, engine runs %q", ws.Precision, g.Precision())
	}
	if ws.ShardIndex != g.shardIndex || ws.ShardCount != g.shardCount {
		return fmt.Errorf("core: warm state owns shard %d of %d, engine owns %d of %d",
			ws.ShardIndex, ws.ShardCount, g.shardIndex, g.shardCount)
	}
	g.Reset()
	for _, s := range ws.Surfaces {
		g.trie.InsertSurface(s)
	}
	for i := range ws.Records {
		rs := &ws.Records[i]
		sent := &types.Sentence{TweetID: rs.TweetID, SentID: rs.SentID, Tokens: rs.Tokens, Gold: rs.Gold}
		if g.tweetBase.Get(sent.Key()) != nil {
			return fmt.Errorf("core: warm state repeats sentence %v", sent.Key())
		}
		g.tweetBase.Add(&stream.Record{
			Sentence:      sent,
			LocalEntities: rs.Local,
			Embeddings:    rs.Emb,
			FinalMentions: rs.Final,
		})
	}
	if ws.Amort == nil {
		// No cache state: the next cycle re-derives everything from the
		// records and trie (byte-identical, once-off full-recompute cost).
		g.amort.markStale()
		return nil
	}
	return g.restoreAmort(ws.Amort)
}

// restoreAmort reinstalls the amortizer caches from a clean capture.
func (g *Globalizer) restoreAmort(as *AmortState) error {
	a := g.amort
	if as.ScannedLen != g.tweetBase.Len() {
		return fmt.Errorf("core: warm state scanned %d of %d sentences", as.ScannedLen, g.tweetBase.Len())
	}
	if as.TrieLen != g.trie.Len() {
		return fmt.Errorf("core: warm state trie length %d, rebuilt trie has %d", as.TrieLen, g.trie.Len())
	}
	if len(as.Scans) != g.tweetBase.Len() {
		return fmt.Errorf("core: warm state has %d scans for %d sentences", len(as.Scans), g.tweetBase.Len())
	}
	for i := range as.Scans {
		key := as.Scans[i].Key
		if g.tweetBase.Get(key) == nil {
			return fmt.Errorf("core: warm state scans unknown sentence %v", key)
		}
		a.scans[key] = as.Scans[i].Mentions
	}
	// Token sets and the inverted index rebuild from the records in
	// stream order — the order rescanPass populated them in.
	g.tweetBase.Each(func(r *stream.Record) {
		key := r.Sentence.Key()
		set := make(map[string]bool, len(r.Sentence.Tokens))
		for _, t := range r.Sentence.Tokens {
			if lt := strings.ToLower(t); !set[lt] {
				set[lt] = true
				a.tokIndex[lt] = append(a.tokIndex[lt], key)
			}
		}
		a.toksets[key] = set
	})
	for i := range as.Embeds {
		e := &as.Embeds[i]
		bySpan := a.embeds.m[e.Key]
		if bySpan == nil {
			bySpan = make(map[types.Span][]float64)
			a.embeds.m[e.Key] = bySpan
		}
		bySpan[e.Span] = e.Vec
	}

	for i := range as.Surfaces {
		st := &as.Surfaces[i]
		if !g.ownsSurface(st.Surface) {
			return fmt.Errorf("core: warm state pools unowned surface %q", st.Surface)
		}
		pool := st.Pool
		a.pools[st.Surface] = pool
		sa := g.newSurfaceAmort()
		sa.mentions = pool
		if st.Skip {
			sa.outcome = surfaceOutcome{surface: st.Surface, skip: true}
			a.surfaces[st.Surface] = sa
			continue
		}
		// Re-derive the pool's embeddings through the (just restored)
		// cache; the distance matrix regrows lazily on the next dirty
		// cycle, which is pure over these exact float bits.
		sa.embs = make([][]float64, len(pool))
		for j := range pool {
			sa.embs[j] = g.embedMention(pool[j])
		}
		oc := surfaceOutcome{surface: st.Surface}
		for _, cs := range st.Cands {
			cand := &stream.Candidate{
				Surface:    st.Surface,
				ClusterID:  cs.ClusterID,
				GlobalEmb:  cs.GlobalEmb,
				Type:       cs.Type,
				Confidence: cs.Conf,
			}
			for _, idx := range cs.Members {
				if idx < 0 || idx >= len(pool) {
					return fmt.Errorf("core: warm state cluster member %d outside pool of %q", idx, st.Surface)
				}
				cand.Mentions = append(cand.Mentions, pool[idx])
				cand.Embs = append(cand.Embs, sa.embs[idx])
			}
			sa.ccache[clusterKey(cs.Members)] = &clusterVerdict{globalEmb: cs.GlobalEmb, et: cs.Type, conf: cs.Conf}
			oc.cands = append(oc.cands, cand)
			if cand.Type != types.None {
				for _, m := range cand.Mentions {
					m.Type = cand.Type
					oc.typed = append(oc.typed, m)
				}
			}
		}
		sa.outcome = oc
		sa.typedBySent = typedBySentence(oc.typed)
		a.surfaces[st.Surface] = sa
		g.candBase.SetClusters(st.Surface, oc.cands)
	}

	a.scannedLen = as.ScannedLen
	a.trieLen = as.TrieLen
	a.mentionCount = as.MentionCount
	a.lastMode = Mode(as.Mode)
	a.haveMode = true
	a.stale = false
	return nil
}
