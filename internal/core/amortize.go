package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nerglobalizer/internal/cluster"
	"nerglobalizer/internal/mention"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/types"
)

// This file implements the cross-cycle amortization layer of the
// continuous execution setup. ProcessBatch re-runs Global NER over the
// accumulated stream every cycle, so without amortization the per-cycle
// cost grows with stream length even when almost nothing changed. The
// layer never recomputes work whose inputs did not change:
//
//   - an embedding cache runs phrase pooling + the Phrase Embedder once
//     per (sentence, span) ever;
//   - a scan cache skips re-scanning old sentences unless the CTrie
//     gained a surface form that could match them (token-membership
//     filter on the new surfaces' first tokens);
//   - dirty-surface tracking re-clusters and re-classifies only surface
//     forms whose mention pool changed this cycle, with a growable
//     pristine distance matrix that appends rows for new mentions
//     instead of recomputing the full N×N block.
//
// The invariant: annotations are byte-identical with caching on or off,
// at every worker count. Every cache is keyed by the exact inputs of
// the computation it skips, and every skipped recomputation is a pure
// function of those inputs (trained parameters are frozen during
// serving). The package's tests switch the layer off wholesale
// (setCaching) to get the scratch recomputation as their oracle.

// embedCache memoizes local mention embeddings (eqs. 1–3) by
// (sentence, span). Entries are immutable once stored — consumers only
// read the vectors — so one embedding is computed per mention ever,
// no matter how many cycles re-visit its surface form. The two-level
// keying makes whole-sentence invalidation cheap.
type embedCache struct {
	mu sync.RWMutex
	m  map[types.SentenceKey]map[types.Span][]float64
	// added lists the entries stored since the last warm-state capture
	// while tracking is on (see changeTracker); workers append under mu.
	added    []MentionEmbed
	tracking bool
}

func newEmbedCache() *embedCache {
	return &embedCache{m: make(map[types.SentenceKey]map[types.Span][]float64)}
}

// get returns the cached embedding for the mention, computing and
// storing it on first use. Concurrent callers may compute the same
// entry twice; both compute identical values, so the race is benign.
func (c *embedCache) get(g *Globalizer, m types.Mention) []float64 {
	c.mu.RLock()
	v := c.m[m.Key][m.Span]
	c.mu.RUnlock()
	if v != nil {
		if g.o != nil {
			g.o.embedCacheHits.Inc()
		}
		return v
	}
	if g.o != nil {
		g.o.mentionsEmbedded.Inc()
	}
	rec := g.tweetBase.Get(m.Key)
	v = g.Embedder.Embed(g.mentionStates(rec), m.Span)
	c.mu.Lock()
	bySpan := c.m[m.Key]
	if bySpan == nil {
		bySpan = make(map[types.Span][]float64)
		c.m[m.Key] = bySpan
	}
	if prev := bySpan[m.Span]; prev != nil {
		// A concurrent caller stored the same values first; keep one
		// copy so the entry is recorded as added once.
		v = prev
	} else {
		bySpan[m.Span] = v
		if c.tracking {
			c.added = append(c.added, MentionEmbed{Key: m.Key, Span: m.Span, Vec: v})
		}
	}
	c.mu.Unlock()
	return v
}

// drop forgets every embedding of one sentence.
func (c *embedCache) drop(key types.SentenceKey) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// state32Cache memoizes the float32-grade token states the i8 tier's
// global phase pools mention embeddings from — one re-embed per
// mentioned sentence ever (see Globalizer.mentionStates for why the
// i8 tier re-embeds). Like embedCache, concurrent first computations
// of the same entry are benign: both produce identical matrices.
type state32Cache struct {
	mu sync.RWMutex
	m  map[types.SentenceKey]*nn.Matrix
}

func newState32Cache() *state32Cache {
	return &state32Cache{m: make(map[types.SentenceKey]*nn.Matrix)}
}

func (c *state32Cache) get(g *Globalizer, rec *stream.Record) *nn.Matrix {
	key := rec.Sentence.Key()
	c.mu.RLock()
	v := c.m[key]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	v = g.Tagger.Embed(rec.Sentence.Tokens, nn.F32)
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v
}

func (c *state32Cache) drop(key types.SentenceKey) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// mentionStates returns the token states mention embeddings pool over
// (eqs. 1–2) for one sentence. At f64 and f32 these are the
// local-phase encoder outputs stored on the record. At i8 the
// sentence is lazily re-embedded at f32: quantized weights shift
// mention embeddings by ~1.5e-2 in cosine distance, far above the
// ~1e-4 near-tie margins that decide average-linkage merge order, so
// clustering — and with it candidate identity — would diverge from
// the exact path. Re-embedding only the mentioned sentences keeps the
// tagging hot path fully quantized while the global phase sees
// f32-grade geometry. With caching on a sentence is re-embedded once
// ever; with caching off it is recomputed per mention, like every
// other cache-off computation.
func (g *Globalizer) mentionStates(rec *stream.Record) *nn.Matrix {
	if g.prec != nn.I8 {
		return rec.Embeddings
	}
	if g.uncached {
		return g.Tagger.Embed(rec.Sentence.Tokens, nn.F32)
	}
	return g.amort.states32.get(g, rec)
}

// embedMention returns the local mention embedding, through the cache
// unless caching is disabled.
func (g *Globalizer) embedMention(m types.Mention) []float64 {
	if g.uncached {
		if g.o != nil {
			g.o.mentionsEmbedded.Inc()
		}
		rec := g.tweetBase.Get(m.Key)
		return g.Embedder.Embed(g.mentionStates(rec), m.Span)
	}
	return g.amort.embeds.get(g, m)
}

// surfaceAmort is the cached Global NER state of one surface form: its
// mention pool in stream order, the pool's embeddings and pristine
// distance matrix, and the finished outcome (candidate clusters plus
// typed mentions). The outcome is valid exactly while the mention pool
// is unchanged; a pool that grew by appending reuses the embedding and
// distance prefixes.
type surfaceAmort struct {
	mentions []types.Mention
	embs     [][]float64
	dist     *cluster.DistMatrix
	outcome  surfaceOutcome
	// typedBySent splits outcome.typed by sentence, preserving the
	// outcome's within-surface order. Incremental FinalMentions rebuilds
	// read it, and diffing it against a fresh outcome yields exactly the
	// sentences whose annotations changed.
	typedBySent map[types.SentenceKey][]types.Mention
	// ccache memoizes step-4 cluster verdicts by membership signature;
	// valid only while the pool keeps its prefix (indices identify the
	// same mentions), so it resets together with embs/dist.
	ccache map[string]*clusterVerdict
}

// newSurfaceAmort returns the empty state of a surface: a distance
// matrix fixed to the engine's clustering parameters and an empty
// verdict cache.
func (g *Globalizer) newSurfaceAmort() *surfaceAmort {
	return &surfaceAmort{
		dist:   cluster.NewDistMatrix(g.cfg.ClusterThreshold, cluster.AverageLinkage),
		ccache: make(map[string]*clusterVerdict),
	}
}

// clusterVerdict is the cached step-4 result of one candidate cluster:
// its pooled global embedding and the ensemble's decision. Entries are
// immutable once stored.
type clusterVerdict struct {
	globalEmb []float64
	et        types.EntityType
	conf      float64
}

// clusterKey builds the membership signature of a cluster from its
// member indices (ascending by construction of Members).
func clusterKey(idxs []int) string {
	var b strings.Builder
	for _, i := range idxs {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(',')
	}
	return b.String()
}

// AmortStats summarizes cache activity in the most recent amortized
// cycle: how many of the stream's sentences were actually re-scanned,
// and how many surface forms returned their cached outcome untouched.
// Purely observational — useful for tests, benchmarks and operations.
type AmortStats struct {
	// Sentences is the accumulated stream length; Rescanned of those
	// went through a fresh trie scan this cycle.
	Sentences, Rescanned int
	// Surfaces is the number of surface forms processed; Reused of
	// those returned their cached outcome without recomputation.
	Surfaces, Reused int
}

// AmortStats returns the cache activity of the most recent amortized
// cycle (zero when caching is disabled or no cycle ran yet). The same
// numbers live on the observability registry as the ner_amort_*
// gauges when an observer is attached (SetObserver); this accessor
// remains for callers that read them programmatically.
func (g *Globalizer) AmortStats() AmortStats { return g.amort.stats }

// amortizer is the per-stream amortization state, reset with the rest
// of the stream state by Globalizer.Reset.
type amortizer struct {
	embeds *embedCache
	// states32 caches per-sentence f32 re-embeds for the i8 tier's
	// global phase (see mentionStates).
	states32 *state32Cache
	// scans caches each sentence's mention-extraction result against
	// the trie state it was last scanned with.
	scans map[types.SentenceKey][]types.Mention
	// tokIndex maps a case-folded token to the sentences containing
	// it, in stream order. The rescan filter reads it to find the
	// sentences a new surface form's first token could touch, instead
	// of testing every cached sentence per cycle.
	tokIndex map[string][]types.SentenceKey
	// indexedLen is the length of the stream prefix tokIndex covers
	// (see indexTokens).
	indexedLen int
	// scannedLen is the stream length after the last rescan pass.
	// Records are append-only, so keys at positions beyond it are
	// exactly the sentences no pass has scanned yet.
	scannedLen int
	// surfaces caches per-surface outcomes across cycles.
	surfaces map[string]*surfaceAmort
	// pools mirrors mention.GroupBySurface over the whole stream — each
	// owned surface's mentions ordered by (stream index, span) — but is
	// maintained incrementally from scan diffs instead of being rebuilt
	// per cycle, so steady-state cycle cost tracks what changed, not
	// stream length. Unowned surfaces (sharded fleets) are never pooled.
	pools map[string][]types.Mention
	// dirty marks surfaces whose pool changed since their outcome was
	// last computed.
	dirty map[string]bool
	// finalDirty marks sentences whose FinalMentions must be rebuilt
	// this cycle (their scan or one of their surfaces' outcomes moved).
	finalDirty map[types.SentenceKey]bool
	// mentionCount tracks the stream's total mention count (all
	// surfaces, owned or not) for observability.
	mentionCount int
	// trieLen is the trie size the bookkeeping last saw. A mismatch
	// beyond this cycle's registrations means surfaces were inserted
	// outside the amortized path (cache-off cycles, ModeLocalOnly
	// cycles, another engine) and the first-token filter cannot be
	// trusted — the cycle falls back to a full rescan, which the diffs
	// then repair exactly.
	trieLen int
	// stale records that stream outputs (FinalMentions, CandidateBase)
	// were last written outside the amortized path, so the next
	// amortized cycle must republish candidates and rebuild every
	// sentence's FinalMentions from its (pool-validated) outcomes.
	stale bool
	// lastMode guards the outcome cache against mode switches between
	// cycles (outcomes encode the mode they were computed at).
	lastMode Mode
	haveMode bool
	// stats describes the most recent cycle's cache activity.
	stats AmortStats
	// track records what changed since the last warm-state capture, so
	// the next capture can be a delta. nil until a capture arms it: an
	// engine that never captures pays one nil check per write site.
	track *changeTracker
}

// changeTracker is the write log between two warm-state captures: the
// parts of the captured state a cycle rewrote, recorded by key so that
// CaptureWarmDelta flattens only those. Appended records need no
// entry — everything at a TweetBase position >= baseLen is new — and
// added embeddings are logged by the embed cache under its own lock.
type changeTracker struct {
	// baseLen is the TweetBase length at the last capture.
	baseLen int
	// surfaces lists the token sequences registered in the trie since.
	surfaces [][]string
	// scans and finals mark sentences whose cached scan / FinalMentions
	// were rewritten.
	scans, finals map[types.SentenceKey]bool
	// pools maps each surface whose outcome was rewritten to the length
	// of its pool prefix that still stands as captured: the pool length
	// at the last capture while the pool only grew, 0 once it was
	// replaced or for a surface the capture did not hold.
	pools map[string]int
	// deleted marks surfaces whose pool emptied.
	deleted map[string]bool
}

// arm starts (or restarts) change tracking from the current state —
// called by a capture that holds the whole state or a delta up to it.
func (a *amortizer) arm(baseLen int) {
	a.track = &changeTracker{
		baseLen: baseLen,
		scans:   make(map[types.SentenceKey]bool),
		finals:  make(map[types.SentenceKey]bool),
		pools:   make(map[string]int),
		deleted: make(map[string]bool),
	}
	a.embeds.mu.Lock()
	a.embeds.added, a.embeds.tracking = nil, true
	a.embeds.mu.Unlock()
}

// disarm stops change tracking: state was (or is about to be) written
// in a way the tracker does not see, so the next capture must be a
// full one.
func (a *amortizer) disarm() {
	if a.track == nil {
		return
	}
	a.track = nil
	a.embeds.mu.Lock()
	a.embeds.added, a.embeds.tracking = nil, false
	a.embeds.mu.Unlock()
}

// surfaceWritten records that a surface's outcome was recomputed over
// a pool whose first kept mentions are unchanged since the previous
// recomputation.
func (t *changeTracker) surfaceWritten(surface string, kept int) {
	if prev, seen := t.pools[surface]; !seen || kept < prev {
		t.pools[surface] = kept
	}
	delete(t.deleted, surface)
}

// surfaceDeleted records that a surface left the amortizer.
func (t *changeTracker) surfaceDeleted(surface string) {
	delete(t.pools, surface)
	t.deleted[surface] = true
}

func newAmortizer() *amortizer {
	return &amortizer{
		embeds:     newEmbedCache(),
		states32:   newState32Cache(),
		scans:      make(map[types.SentenceKey][]types.Mention),
		tokIndex:   make(map[string][]types.SentenceKey),
		surfaces:   make(map[string]*surfaceAmort),
		pools:      make(map[string][]types.Mention),
		dirty:      make(map[string]bool),
		finalDirty: make(map[types.SentenceKey]bool),
	}
}

// markStale notes that a cycle ran outside the amortized path (caching
// disabled) and wrote FinalMentions and the CandidateBase directly.
func (a *amortizer) markStale() {
	a.stale = true
	a.disarm()
}

// invalidateSentence forgets everything derived from one sentence.
// Used when a record is replaced in the TweetBase — a pathological
// case (stream keys are unique by construction), handled by dropping
// every derived structure: the replaced sentence's embeddings may back
// arbitrary surfaces, and the mention pools index into a stream whose
// content changed. The next amortized cycle rescans everything and
// rebuilds the pools from empty.
func (a *amortizer) invalidateSentence(key types.SentenceKey) {
	a.embeds.drop(key)
	a.states32.drop(key)
	a.scans = make(map[types.SentenceKey][]types.Mention)
	a.tokIndex = make(map[string][]types.SentenceKey)
	a.indexedLen = 0
	a.scannedLen = 0
	a.surfaces = make(map[string]*surfaceAmort)
	a.pools = make(map[string][]types.Mention)
	a.dirty = make(map[string]bool)
	a.mentionCount = 0
	a.stale = true
	a.disarm()
}

// rescanPass refreshes the scan cache for one cycle, byte-identical to
// scanning every sentence against the full trie, while actually
// re-scanning only (a) this cycle's batch and (b) old sentences that
// could match a surface the trie gained this cycle.
//
// The filter is conservative and therefore exact: a cached sentence's
// scan can only change if a newly registered surface form occurs
// verbatim (case-folded) in it, which requires the surface's first
// token to be among the sentence's tokens. Sentences failing that
// membership test reuse their cached result; sentences passing it are
// re-scanned (often to an unchanged result, which refreshes the cache
// harmlessly). When the trie grew outside this cycle's registrations
// (cache-off or local-only cycles ran in between), the filter's input
// is incomplete and every sentence re-scans.
//
// Every scan that actually changed is diffed against its predecessor,
// splicing the per-surface mention pools and marking the touched
// surfaces dirty — the bookkeeping the incremental global phase runs
// on.
func (a *amortizer) rescanPass(g *Globalizer, batch []*types.Sentence, newSurfaces [][]string) {
	first := make(map[string]bool, len(newSurfaces))
	for _, toks := range newSurfaces {
		first[strings.ToLower(toks[0])] = true
	}
	rescanAll := a.stale || g.trie.Len() != a.trieLen+len(newSurfaces)
	a.stats.Sentences = g.tweetBase.Len()

	// Candidate set: never-scanned sentences (the append-only tail —
	// this cycle's batch, plus anything a local-only cycle added) and
	// cached sentences whose token set contains a new surface's first
	// token, read off the inverted index. Sorted back into stream
	// order so diffs apply in the order the old full walk used.
	var cands []types.SentenceKey
	if rescanAll {
		cands = g.tweetBase.Keys()
	} else {
		cands = g.tweetBase.KeysFrom(a.scannedLen)
		if len(first) > 0 {
			seen := make(map[types.SentenceKey]bool, len(cands))
			for _, k := range cands {
				seen[k] = true
			}
			for f := range first {
				for _, k := range a.tokIndex[f] {
					if !seen[k] {
						seen[k] = true
						cands = append(cands, k)
					}
				}
			}
			sort.Slice(cands, func(i, j int) bool {
				return g.tweetBase.IndexOf(cands[i]) < g.tweetBase.IndexOf(cands[j])
			})
		}
	}
	a.stats.Rescanned = len(cands)

	// Re-scans shard over the pool (the frozen trie is read-only);
	// cached sentences keep their stored result. Results land at the
	// candidate's own index, so stream order is preserved.
	scanned := parallel.MapOrdered(g.pool, len(cands), func(i int) []types.Mention {
		r := g.tweetBase.Get(cands[i])
		return mention.Extract(r.Sentence, g.trie, r.LocalEntities)
	})

	for i, key := range cands {
		old := a.scans[key]
		if !mentionsEqual(old, scanned[i]) {
			a.applyScanDiff(g, key, old, scanned[i])
			a.mentionCount += len(scanned[i]) - len(old)
			if a.track != nil {
				a.track.scans[key] = true
			}
		}
		a.scans[key] = scanned[i]
	}
	a.indexTokens(g.tweetBase)
	a.scannedLen = g.tweetBase.Len()
	a.trieLen = g.trie.Len()
}

// indexTokens extends tokIndex over the sentences the append-only
// stream gained since the last call, in stream order. A sentence is
// listed once per distinct token: its key can only be a list's last
// entry, so that is the one place a repeat shows.
func (a *amortizer) indexTokens(tb *stream.TweetBase) {
	for _, key := range tb.KeysFrom(a.indexedLen) {
		for _, t := range tb.Get(key).Sentence.Tokens {
			lt := strings.ToLower(t)
			if l := a.tokIndex[lt]; len(l) == 0 || l[len(l)-1] != key {
				a.tokIndex[lt] = append(l, key)
			}
		}
	}
	a.indexedLen = tb.Len()
}

// extract returns the mention-extraction result over the whole
// accumulated stream in stream order. The ablation modes and direct
// callers consume this flat view; the ModeFull serving path skips the
// concatenation and works from the incrementally maintained pools.
func (a *amortizer) extract(g *Globalizer, batch []*types.Sentence, newSurfaces [][]string) []types.Mention {
	a.rescanPass(g, batch, newSurfaces)
	var out []types.Mention
	for _, key := range g.tweetBase.Keys() {
		out = append(out, a.scans[key]...)
	}
	return out
}

// groupScan splits one sentence's scan result by surface form,
// preserving span order within each surface.
func groupScan(ms []types.Mention) map[string][]types.Mention {
	if len(ms) == 0 {
		return nil
	}
	out := make(map[string][]types.Mention, 4)
	for _, m := range ms {
		out[m.Surface] = append(out[m.Surface], m)
	}
	return out
}

// applyScanDiff reconciles the mention pools with one sentence's
// changed scan: every owned surface whose contribution from this
// sentence differs gets its pool spliced and is marked dirty.
func (a *amortizer) applyScanDiff(g *Globalizer, key types.SentenceKey, old, cur []types.Mention) {
	oldBy := groupScan(old)
	curBy := groupScan(cur)
	for s, oms := range oldBy {
		if !g.ownsSurface(s) {
			continue
		}
		if !mentionsEqual(oms, curBy[s]) && a.splicePool(g, s, key, curBy[s]) {
			a.dirty[s] = true
		}
	}
	for s, cms := range curBy {
		if _, seen := oldBy[s]; seen || !g.ownsSurface(s) {
			continue
		}
		if a.splicePool(g, s, key, cms) {
			a.dirty[s] = true
		}
	}
}

// splicePool replaces one sentence's contribution to a surface's
// mention pool, preserving the pool's (stream index, span) order, and
// reports whether the pool changed. Appends at the tail extend the
// slice in place — safe because cached surfaceAmort prefixes are never
// overwritten, only extended past their length — while interior
// splices copy into a fresh slice so cached prefixes keep their bytes.
func (a *amortizer) splicePool(g *Globalizer, surface string, key types.SentenceKey, repl []types.Mention) bool {
	pool := a.pools[surface]
	idx := g.tweetBase.IndexOf(key)
	lo := sort.Search(len(pool), func(i int) bool {
		return g.tweetBase.IndexOf(pool[i].Key) >= idx
	})
	hi := lo
	for hi < len(pool) && pool[hi].Key == key {
		hi++
	}
	if mentionsEqual(pool[lo:hi], repl) {
		return false
	}
	if lo == len(pool) {
		a.pools[surface] = append(pool, repl...)
		return true
	}
	np := make([]types.Mention, 0, len(pool)-(hi-lo)+len(repl))
	np = append(np, pool[:lo]...)
	np = append(np, repl...)
	np = append(np, pool[hi:]...)
	a.pools[surface] = np
	return true
}

// typedBySentence splits a surface outcome's typed mentions by
// sentence, preserving the outcome's order within each.
func typedBySentence(typed []types.Mention) map[types.SentenceKey][]types.Mention {
	if len(typed) == 0 {
		return nil
	}
	out := make(map[types.SentenceKey][]types.Mention, 8)
	for _, m := range typed {
		out[m.Key] = append(out[m.Key], m)
	}
	return out
}

// markTypedDiff marks every sentence whose typed mentions differ
// between two outcomes of one surface.
func markTypedDiff(dst map[types.SentenceKey]bool, old, cur map[types.SentenceKey][]types.Mention) {
	for key, oms := range old {
		if !mentionsEqual(oms, cur[key]) {
			dst[key] = true
		}
	}
	for key := range cur {
		if _, seen := old[key]; !seen {
			dst[key] = true
		}
	}
}

// rebuildFinal reassembles one sentence's FinalMentions from the
// cached outcomes of the surfaces its scan mentions — ascending
// surface order, each surface's mentions in pool order — which is
// exactly the order the full rebuild produces.
func (a *amortizer) rebuildFinal(key types.SentenceKey) []types.Mention {
	scan := a.scans[key]
	if len(scan) == 0 {
		return nil
	}
	surfs := make([]string, 0, 4)
	for _, m := range scan {
		dup := false
		for _, s := range surfs {
			if s == m.Surface {
				dup = true
				break
			}
		}
		if !dup {
			surfs = append(surfs, m.Surface)
		}
	}
	sort.Strings(surfs)
	var out []types.Mention
	for _, s := range surfs {
		if sa := a.surfaces[s]; sa != nil {
			out = append(out, sa.typedBySent[key]...)
		}
	}
	return out
}

// mentionsPrefix reports whether old is a prefix of cur — the "pool
// only grew" case whose embeddings and distance matrix can be reused.
func mentionsPrefix(old, cur []types.Mention) bool {
	if len(old) > len(cur) {
		return false
	}
	for i, m := range old {
		if cur[i] != m {
			return false
		}
	}
	return true
}

func mentionsEqual(a, b []types.Mention) bool {
	return len(a) == len(b) && mentionsPrefix(a, b)
}

// amortizedGlobalPhase is globalPhase with cross-cycle reuse, run
// incrementally: cached scans feed the rescan filter, scan diffs
// splice the per-surface mention pools, only pool-changed (dirty)
// surfaces recompute — reusing embedding and distance-matrix prefixes
// when their pool only grew — and only sentences whose typed mentions
// actually moved get their FinalMentions rebuilt. Steady-state cycle
// cost is proportional to what changed, not to stream length, yet the
// observable output (FinalMentions, CandidateBase) is byte-identical
// to the uncached full recomputation.
func (g *Globalizer) amortizedGlobalPhase(batch []*types.Sentence, newSurfaces [][]string, mode Mode, tr *obs.Trace) {
	a := g.amort
	stale := a.stale
	if a.haveMode && a.lastMode != mode {
		// Outcomes encode the mode they were computed at: drop them all
		// and rebuild every surface and sentence this cycle. Embeddings
		// are mode-independent and survive in the embed cache.
		a.surfaces = make(map[string]*surfaceAmort)
		for s := range a.pools {
			a.dirty[s] = true
		}
		stale = true
		a.disarm()
	}
	a.lastMode, a.haveMode = mode, true

	if mode == ModeMentionExtraction {
		// The majority-vote ablation has no per-surface outcome state; it
		// rewrites every FinalMention each cycle from the flat mention
		// view, and publishes no candidates.
		t0 := g.o.now()
		mentions := a.extract(g, batch, newSurfaces)
		g.o.extractDone(tr, t0, len(mentions), a.stats.Rescanned, a.stats.Sentences-a.stats.Rescanned)
		g.candBase = stream.NewCandidateBase()
		g.assignMajorityTypes(mentions)
		g.o.publishAmort(a.stats)
		a.stale = false
		return
	}

	t0 := g.o.now()
	a.rescanPass(g, batch, newSurfaces)
	g.o.extractDone(tr, t0, a.mentionCount, a.stats.Rescanned, a.stats.Sentences-a.stats.Rescanned)

	if stale {
		// Candidates were last published outside this path (or at another
		// mode): start from an empty base and republish every cached
		// outcome below, after the dirty recomputations land.
		g.candBase = stream.NewCandidateBase()
	}

	// Surfaces whose pool emptied (a late longer surface shadowing every
	// match) disappear from every output.
	var dirtySurfaces []string
	for s := range a.dirty {
		delete(a.dirty, s)
		if len(a.pools[s]) == 0 {
			if sa := a.surfaces[s]; sa != nil {
				markTypedDiff(a.finalDirty, sa.typedBySent, nil)
			}
			delete(a.surfaces, s)
			delete(a.pools, s)
			g.candBase.Delete(s)
			if a.track != nil {
				a.track.surfaceDeleted(s)
			}
			continue
		}
		dirtySurfaces = append(dirtySurfaces, s)
	}
	sort.Strings(dirtySurfaces)
	a.stats.Surfaces = len(a.pools)
	a.stats.Reused = len(a.pools) - len(dirtySurfaces)

	// Dirty surfaces fan out one per worker exactly like globalPhase;
	// each worker touches only its own surface's cached state. The old
	// typed views are captured first so the serial merge below can diff
	// them (updateSurface mutates the cached entry in place on the
	// append-only path), and the old pool lengths so the change tracker
	// knows from where a pool that only grew was appended to.
	oldTyped := make([]map[types.SentenceKey][]types.Mention, len(dirtySurfaces))
	oldLen := make([]int, len(dirtySurfaces))
	for i, s := range dirtySurfaces {
		if sa := a.surfaces[s]; sa != nil {
			oldTyped[i] = sa.typedBySent
			oldLen[i] = len(sa.mentions)
		}
	}
	ts := g.o.now()
	updated := parallel.MapOrdered(g.pool, len(dirtySurfaces), func(si int) *surfaceAmort {
		surface := dirtySurfaces[si]
		return g.updateSurface(a.surfaces[surface], surface, a.pools[surface], mode)
	})
	g.o.surfacesDone(tr, ts, a.stats.Surfaces, a.stats.Reused)
	g.o.publishAmort(a.stats)

	for si, sa := range updated {
		surface := dirtySurfaces[si]
		newTyped := typedBySentence(sa.outcome.typed)
		markTypedDiff(a.finalDirty, oldTyped[si], newTyped)
		sa.typedBySent = newTyped
		if a.track != nil {
			// updateSurface returns the cached entry itself exactly when
			// the old pool is a prefix of the new one.
			kept := 0
			if sa == a.surfaces[surface] {
				kept = oldLen[si]
			}
			a.track.surfaceWritten(surface, kept)
		}
		a.surfaces[surface] = sa
		if sa.outcome.skip {
			g.candBase.Delete(surface)
		} else {
			g.candBase.SetClusters(surface, sa.outcome.cands)
		}
	}

	if stale {
		// Republish clean outcomes into the fresh candidate base. Order
		// is irrelevant: surfaces are distinct keys.
		for s, sa := range a.surfaces {
			if !a.dirtyContains(dirtySurfaces, s) && !sa.outcome.skip {
				g.candBase.SetClusters(s, sa.outcome.cands)
			}
		}
		g.tweetBase.Each(func(r *stream.Record) {
			r.FinalMentions = a.rebuildFinal(r.Sentence.Key())
		})
		clear(a.finalDirty)
		a.stale = false
		return
	}

	for key := range a.finalDirty {
		delete(a.finalDirty, key)
		if rec := g.tweetBase.Get(key); rec != nil {
			rec.FinalMentions = a.rebuildFinal(key)
			if a.track != nil {
				a.track.finals[key] = true
			}
		}
	}
}

// dirtyContains reports whether surface is in the sorted dirty list.
func (a *amortizer) dirtyContains(sorted []string, surface string) bool {
	i := sort.SearchStrings(sorted, surface)
	return i < len(sorted) && sorted[i] == surface
}

// updateSurface recomputes one dirty surface. A pool that grew by
// appending keeps its embedding prefix and distance matrix; a pool
// whose earlier mentions changed (a late-arriving longer surface
// re-shaped an old sentence's scan) rebuilds from the embedding cache,
// which still spares the per-mention encoder work.
func (g *Globalizer) updateSurface(sa *surfaceAmort, surface string, ms []types.Mention, mode Mode) *surfaceAmort {
	if sa == nil || !mentionsPrefix(sa.mentions, ms) {
		sa = g.newSurfaceAmort()
	}
	sa.mentions = ms
	if g.lacksLocalSupport(ms) {
		sa.outcome = surfaceOutcome{surface: surface, skip: true}
		return sa
	}
	o := g.o
	te := o.now()
	for i := len(sa.embs); i < len(ms); i++ {
		sa.embs = append(sa.embs, g.embedMention(ms[i]))
	}
	if o != nil {
		o.stageEmbed.Observe(time.Since(te).Seconds())
	}
	var clustering cluster.Result
	if mode != ModeLocalEmbeddings {
		tc := o.now()
		sa.dist.Grow(sa.embs, g.pool)
		clustering = sa.dist.Cluster()
		o.clusteringDone(tc, len(ms), clustering.Count, sa.dist.Replayed())
	}
	sa.outcome = g.outcomeFromEmbeddings(surface, ms, sa.embs, mode, clustering, sa.ccache)
	return sa
}
