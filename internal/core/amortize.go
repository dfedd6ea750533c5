package core

import (
	"slices"
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
// layer keeps two tables beside the paper's two stores and never
// recomputes work whose inputs did not change:
//
//   - one row per TweetBase position (sentRow): the sentence's trie
//     scan, re-run only when the CTrie gained a surface form that could
//     match it (token-membership filter on the new surfaces' first
//     tokens), and its mention embeddings, computed once per span ever;
//   - one entry per surface form (surfaceAmort): its mention pool,
//     spliced from scan diffs, and the outcome computed over it, redone
//     only when the pool changed — over a growable distance matrix that
//     appends rows for new mentions instead of recomputing the full N×N
//     block, and re-clusters from the state its last clustering ended
//     in.
//
// The stream is append-only, so a sentence's position is its address
// for good: everything per sentence is a slice indexed by it, and stream
// order is integer order.
//
// The invariant: annotations are byte-identical with caching on or off,
// at every worker count. Every cached value is keyed by the exact inputs
// of the computation it skips, and every skipped recomputation is a pure
// function of those inputs (trained parameters are frozen during
// serving). The layer runs the complete pipeline only: a cycle at an
// ablation mode takes the scratch recomputation (see runCycle), and the
// package's tests switch the layer off wholesale (setCaching) to get
// that recomputation as their oracle.

// sentRow is the amortizer's state for the sentence at one stream
// position.
type sentRow struct {
	// scan is the sentence's mention-extraction result against the trie
	// state it was last scanned with. Only the cycle's serial body writes
	// it.
	scan []types.Mention
	// embeds memoizes the sentence's local mention embeddings (eqs. 1–3)
	// by span. Entries are immutable once stored — consumers only read
	// the vectors — so one embedding is computed per mention ever, no
	// matter how many cycles re-visit its surface form.
	embeds map[types.Span][]float64
	// state32 is the float32-grade re-embed of the sentence's tokens the
	// i8 tier pools mention embeddings from (see mentionStates).
	state32 *nn.Matrix
}

// mentionStates returns the token states mention embeddings pool over
// (eqs. 1–2) for the sentence at one stream position. At f64 and f32
// these are the local-phase encoder outputs stored on the record. At i8
// the sentence is lazily re-embedded at f32: quantized weights shift
// mention embeddings by ~1.5e-2 in cosine distance, far above the
// ~1e-4 near-tie margins that decide average-linkage merge order, so
// clustering — and with it candidate identity — would diverge from
// the exact path. Re-embedding only the mentioned sentences keeps the
// tagging hot path fully quantized while the global phase sees
// f32-grade geometry. With caching on a sentence is re-embedded once
// ever; with caching off it is recomputed per mention, like every
// other cache-off computation.
func (g *Globalizer) mentionStates(pos int) *nn.Matrix {
	rec := g.tweetBase.At(pos)
	if g.prec != nn.I8 {
		return rec.Embeddings
	}
	if g.uncached {
		return g.Tagger.Embed(rec.Sentence.Tokens, nn.F32)
	}
	a := g.amort
	a.mu.RLock()
	v := a.rows[pos].state32
	a.mu.RUnlock()
	if v == nil {
		// Concurrent first computations of one row are benign: both
		// produce identical matrices.
		v = g.Tagger.Embed(rec.Sentence.Tokens, nn.F32)
		a.mu.Lock()
		a.rows[pos].state32 = v
		a.mu.Unlock()
	}
	return v
}

// embedMention returns the local mention embedding, computing and
// storing it in the sentence's row on first use unless caching is
// disabled. Concurrent callers may compute the same entry twice; both
// compute identical values, so the race is benign.
func (g *Globalizer) embedMention(m types.Mention) []float64 {
	pos := g.tweetBase.IndexOf(m.Key)
	a := g.amort
	if !g.uncached {
		a.mu.RLock()
		v := a.rows[pos].embeds[m.Span]
		a.mu.RUnlock()
		if v != nil {
			if g.o != nil {
				g.o.embedCacheHits.Inc()
			}
			return v
		}
	}
	if g.o != nil {
		g.o.mentionsEmbedded.Inc()
	}
	v := g.Embedder.Embed(g.mentionStates(pos), m.Span)
	if g.uncached {
		return v
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	row := &a.rows[pos]
	if prev := row.embeds[m.Span]; prev != nil {
		// A concurrent caller stored the same values first; keep one
		// copy so the entry is recorded as added once.
		return prev
	}
	if row.embeds == nil {
		row.embeds = make(map[types.Span][]float64)
	}
	row.embeds[m.Span] = v
	if a.track != nil {
		a.track.embeds = append(a.track.embeds, embedRef{pos: pos, span: m.Span})
	}
	return v
}

// surfaceAmort is the Global NER state of one surface form: its live
// mention pool, and the finished outcome (candidate clusters plus typed
// mentions) with the embeddings and distance matrix (in the state its
// clustering ended in) it was computed over. The outcome is valid exactly while the pool is
// unchanged; a pool that grew by appending reuses the embedding and
// distance prefixes.
type surfaceAmort struct {
	surface string
	// pool mirrors mention.GroupBySurface over the whole stream for this
	// surface — its mentions ordered by (stream position, span) — but is
	// maintained incrementally from scan diffs instead of being rebuilt
	// per cycle, so steady-state cycle cost tracks what changed, not
	// stream length. Unowned surfaces (sharded fleets) have no entry.
	pool []types.Mention
	// dirty marks a pool that changed since the outcome was computed;
	// the entry is on amortizer.dirty exactly while it is set.
	dirty bool
	// mentions is the pool the outcome below stands on: the pool itself
	// between cycles, its previous value while scan diffs splice it.
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

// newSurfaceAmort returns the empty state of a surface.
func (g *Globalizer) newSurfaceAmort(surface string) *surfaceAmort {
	sa := &surfaceAmort{surface: surface}
	g.resetOutcome(sa)
	return sa
}

// resetOutcome drops what a surface's outcome was computed over: a
// distance matrix fixed to the engine's clustering parameters and an
// empty verdict cache take its place.
func (g *Globalizer) resetOutcome(sa *surfaceAmort) {
	sa.mentions, sa.embs = nil, nil
	sa.dist = cluster.NewDistMatrix(g.cfg.ClusterThreshold, cluster.AverageLinkage)
	sa.ccache = make(map[string]*clusterVerdict)
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

// amortStats summarizes the most recent amortized cycle: how many of
// the stream's sentences were actually re-scanned, and how many surface
// forms returned their cached outcome untouched. The ner_amort_* gauges
// publish it.
type amortStats struct {
	// Sentences is the accumulated stream length; Rescanned of those
	// went through a fresh trie scan this cycle.
	Sentences, Rescanned int
	// Surfaces is the number of surface forms processed; Reused of
	// those returned their cached outcome without recomputation.
	Surfaces, Reused int
}

// amortizer is the per-stream amortization state, reset with the rest
// of the stream state by Globalizer.Reset.
type amortizer struct {
	// mu guards what the per-surface workers of one cycle write side by
	// side: every row's embeds and state32, and track.embeds. All else
	// is written by the cycle's serial body alone.
	mu sync.RWMutex
	// rows holds one entry per TweetBase position, grown wherever records
	// are added (applyTagged, RestoreWarmState).
	rows []sentRow
	// tokIndex maps a case-folded token to the positions of the scanned
	// sentences containing it, ascending. The rescan filter reads it to
	// find the sentences a new surface form's first token could touch,
	// instead of testing every cached sentence per cycle.
	tokIndex map[string][]int
	// scannedLen is the stream length after the last rescan pass, and
	// the prefix tokIndex covers. Records are append-only, so positions
	// from it on are exactly the sentences no pass has scanned yet.
	scannedLen int
	// surfaces holds every owned surface form with a non-empty pool.
	surfaces map[string]*surfaceAmort
	// dirty lists the surfaces whose pool changed since their outcome
	// was last computed.
	dirty []*surfaceAmort
	// finalDirty marks sentences whose FinalMentions must be rebuilt
	// this cycle (their scan or one of their surfaces' outcomes moved);
	// empty between cycles.
	finalDirty map[types.SentenceKey]bool
	// mentionCount tracks the stream's total mention count (all
	// surfaces, owned or not) for observability.
	mentionCount int
	// trieLen is the trie size the bookkeeping last saw. A mismatch
	// beyond this cycle's registrations means surfaces were inserted
	// outside the amortized path (scratch cycles, ModeLocalOnly cycles)
	// and the first-token filter cannot be trusted — the cycle falls back
	// to a full rescan, which the diffs then repair exactly.
	trieLen int
	// stale records that stream outputs (FinalMentions, CandidateBase)
	// were last written outside the amortized path, so the next
	// amortized cycle must republish candidates and rebuild every
	// sentence's FinalMentions from its (pool-validated) outcomes.
	stale bool
	// stats describes the most recent cycle's cache activity.
	stats amortStats
	// track records what changed since the last warm-state capture, so
	// the next capture can be a delta. nil until a capture arms it: an
	// engine that never captures pays one nil check per write site.
	track *changeTracker
}

// changeTracker is the write log between two warm-state captures: the
// parts of the captured state a cycle rewrote, so that CaptureWarmDelta
// flattens only those. Sentences are logged by stream position.
// Appended records need no entry — everything at a position >= baseLen
// is new.
type changeTracker struct {
	// baseLen is the TweetBase length at the last capture.
	baseLen int
	// surfaces lists the token sequences registered in the trie since.
	surfaces [][]string
	// scans and finals mark sentences whose cached scan / FinalMentions
	// were rewritten.
	scans, finals map[int]bool
	// embeds lists the mention embeddings stored since; workers append
	// under amortizer.mu.
	embeds []embedRef
	// pools maps each surface whose outcome was rewritten to the length
	// of its pool prefix that still stands as captured: the pool length
	// at the last capture while the pool only grew, 0 once it was
	// replaced or for a surface the capture did not hold.
	pools map[string]int
	// deleted marks surfaces whose pool emptied.
	deleted map[string]bool
}

// embedRef addresses one stored mention embedding.
type embedRef struct {
	pos  int
	span types.Span
}

// arm starts (or restarts) change tracking from the current state —
// called by a capture that holds the whole state or a delta up to it.
func (a *amortizer) arm(baseLen int) {
	a.track = &changeTracker{
		baseLen: baseLen,
		scans:   make(map[int]bool),
		finals:  make(map[int]bool),
		pools:   make(map[string]int),
		deleted: make(map[string]bool),
	}
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
		tokIndex:   make(map[string][]int),
		surfaces:   make(map[string]*surfaceAmort),
		finalDirty: make(map[types.SentenceKey]bool),
	}
}

// grow extends the per-sentence table to n rows.
func (a *amortizer) grow(n int) {
	if n > len(a.rows) {
		a.rows = append(a.rows, make([]sentRow, n-len(a.rows))...)
	}
}

// recordReplaced returns the amortizer to continue with after the
// record at pos was replaced in the TweetBase — a pathological case
// (stream keys are unique by construction) that changes the content
// under a position: the replaced sentence's embeddings may back
// arbitrary surfaces, and every mention pool indexes into the stream.
// Everything derived is dropped but the other sentences' embeddings,
// which are functions of their own records alone; the next amortized
// cycle rescans every sentence and rebuilds the pools from empty.
func (a *amortizer) recordReplaced(pos int) *amortizer {
	fresh := newAmortizer()
	fresh.rows = a.rows
	for i := range fresh.rows {
		fresh.rows[i].scan = nil
	}
	fresh.rows[pos] = sentRow{}
	fresh.stale = true
	return fresh
}

// markStale notes that stream outputs were written outside the
// amortized path — a scratch cycle wrote FinalMentions and the
// CandidateBase directly, or a restore brought records without cache
// state. The tracker did not see those writes, so the next capture must
// be a full one.
func (a *amortizer) markStale() {
	a.stale = true
	a.track = nil
}

// rescanPass refreshes the cached scans for one cycle, byte-identical to
// scanning every sentence against the full trie, while actually
// re-scanning only (a) the sentences no pass has scanned yet — this
// cycle's batch — and (b) old sentences that could match a surface the
// trie gained this cycle.
//
// The filter is conservative and therefore exact: a cached sentence's
// scan can only change if a newly registered surface form occurs
// verbatim (case-folded) in it, which requires the surface's first
// token to be among the sentence's tokens. Sentences failing that
// membership test reuse their cached result; sentences passing it are
// re-scanned (often to an unchanged result, which refreshes the cache
// harmlessly). When the trie grew outside this cycle's registrations
// (scratch or local-only cycles ran in between), the filter's input
// is incomplete and every sentence re-scans.
//
// Every scan that actually changed is diffed against its predecessor,
// splicing the per-surface mention pools and marking the touched
// surfaces dirty — the bookkeeping the incremental global phase runs
// on.
func (a *amortizer) rescanPass(g *Globalizer, newSurfaces [][]string) {
	tb := g.tweetBase
	rescanAll := a.stale || g.trie.Len() != a.trieLen+len(newSurfaces)
	a.stats.Sentences = tb.Len()

	// Candidate positions, ascending, so diffs apply in stream order:
	// the old sentences the inverted index lists under a new surface's
	// first token, then the never-scanned tail.
	var cands []int
	from := a.scannedLen
	if rescanAll {
		from = 0
	} else {
		first := make(map[string]bool, len(newSurfaces))
		for _, toks := range newSurfaces {
			if f := strings.ToLower(toks[0]); !first[f] {
				first[f] = true
				cands = append(cands, a.tokIndex[f]...)
			}
		}
		sort.Ints(cands)
		cands = slices.Compact(cands)
	}
	for p := from; p < tb.Len(); p++ {
		cands = append(cands, p)
	}
	a.stats.Rescanned = len(cands)

	// Re-scans shard over the pool (the frozen trie is read-only);
	// cached sentences keep their stored result. Results land at the
	// candidate's own index, so stream order is preserved.
	scanned := parallel.MapOrdered(g.pool, len(cands), func(i int) []types.Mention {
		r := tb.At(cands[i])
		return mention.Extract(r.Sentence, g.trie, r.LocalEntities)
	})

	for i, p := range cands {
		row := &a.rows[p]
		if !mentionsEqual(row.scan, scanned[i]) {
			a.applyScanDiff(g, p, row.scan, scanned[i])
			a.mentionCount += len(scanned[i]) - len(row.scan)
			if a.track != nil {
				a.track.scans[p] = true
			}
		}
		row.scan = scanned[i]
	}

	a.indexTokens(tb)
	a.trieLen = g.trie.Len()
}

// indexTokens extends tokIndex over the stream's tail no pass has
// covered yet and moves scannedLen to the stream's end. A sentence is
// listed once per distinct token: its position can only be a list's
// last entry, so that is the one place a repeat shows.
func (a *amortizer) indexTokens(tb *stream.TweetBase) {
	for p := a.scannedLen; p < tb.Len(); p++ {
		for _, t := range tb.At(p).Sentence.Tokens {
			lt := strings.ToLower(t)
			if l := a.tokIndex[lt]; len(l) == 0 || l[len(l)-1] != p {
				a.tokIndex[lt] = append(l, p)
			}
		}
	}
	a.scannedLen = tb.Len()
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

// applyScanDiff reconciles the mention pools with the changed scan of
// the sentence at pos: every owned surface whose contribution from this
// sentence differs gets its pool spliced and is marked dirty.
func (a *amortizer) applyScanDiff(g *Globalizer, pos int, old, cur []types.Mention) {
	oldBy := groupScan(old)
	curBy := groupScan(cur)
	for s, oms := range oldBy {
		if g.ownsSurface(s) && !mentionsEqual(oms, curBy[s]) {
			a.splicePool(g, s, pos, curBy[s])
		}
	}
	for s, cms := range curBy {
		if _, seen := oldBy[s]; !seen && g.ownsSurface(s) {
			a.splicePool(g, s, pos, cms)
		}
	}
}

// splicePool replaces the contribution of the sentence at pos to a
// surface's mention pool, preserving the pool's (stream position, span)
// order, and marks the surface dirty when the pool changed. Appends at
// the tail extend the slice in place — safe because the prefix an
// outcome stands on is never overwritten, only extended past its length
// — while interior splices copy into a fresh slice so that prefix keeps
// its bytes.
func (a *amortizer) splicePool(g *Globalizer, surface string, pos int, repl []types.Mention) {
	sa := a.surfaces[surface]
	if sa == nil {
		if len(repl) == 0 {
			return
		}
		sa = g.newSurfaceAmort(surface)
		a.surfaces[surface] = sa
	}
	pool := sa.pool
	lo := sort.Search(len(pool), func(i int) bool {
		return g.tweetBase.IndexOf(pool[i].Key) >= pos
	})
	key := g.tweetBase.At(pos).Sentence.Key()
	hi := lo
	for hi < len(pool) && pool[hi].Key == key {
		hi++
	}
	if mentionsEqual(pool[lo:hi], repl) {
		return
	}
	if lo == len(pool) {
		sa.pool = append(pool, repl...)
	} else {
		np := make([]types.Mention, 0, len(pool)-(hi-lo)+len(repl))
		np = append(np, pool[:lo]...)
		np = append(np, repl...)
		sa.pool = append(np, pool[hi:]...)
	}
	if !sa.dirty {
		sa.dirty = true
		a.dirty = append(a.dirty, sa)
	}
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

// rebuildFinal reassembles the FinalMentions of the sentence at pos
// from the cached outcomes of the surfaces its scan mentions — ascending
// surface order, each surface's mentions in pool order — which is
// exactly the order the full rebuild produces.
func (a *amortizer) rebuildFinal(pos int) []types.Mention {
	scan := a.rows[pos].scan
	if len(scan) == 0 {
		return nil
	}
	surfs := make([]string, 0, 4)
	for _, m := range scan {
		if !slices.Contains(surfs, m.Surface) {
			surfs = append(surfs, m.Surface)
		}
	}
	sort.Strings(surfs)
	var out []types.Mention
	for _, s := range surfs {
		if sa := a.surfaces[s]; sa != nil {
			out = append(out, sa.typedBySent[scan[0].Key]...)
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

// amortizedGlobalPhase is globalPhase at ModeFull with cross-cycle
// reuse, run incrementally: cached scans feed the rescan filter, scan
// diffs splice the per-surface mention pools, only pool-changed (dirty)
// surfaces recompute — reusing embedding and distance-matrix prefixes
// when their pool only grew — and only sentences whose typed mentions
// actually moved get their FinalMentions rebuilt. Steady-state cycle
// cost is proportional to what changed, not to stream length, yet the
// observable output (FinalMentions, CandidateBase) is byte-identical
// to the scratch recomputation.
func (g *Globalizer) amortizedGlobalPhase(newSurfaces [][]string, tr *obs.Trace) {
	a := g.amort
	tb := g.tweetBase
	stale := a.stale

	t0 := g.o.now()
	a.rescanPass(g, newSurfaces)
	g.o.extractDone(tr, t0, a.mentionCount, a.stats.Rescanned, a.stats.Sentences-a.stats.Rescanned)

	if stale {
		// Candidates were last published outside this path: start from an
		// empty base and republish every cached outcome below, after the
		// dirty recomputations land.
		g.candBase = stream.NewCandidateBase()
	}

	// Surfaces whose pool emptied (a late longer surface shadowing every
	// match) disappear from every output.
	dirty := a.dirty[:0]
	for _, sa := range a.dirty {
		sa.dirty = false
		if len(sa.pool) > 0 {
			dirty = append(dirty, sa)
			continue
		}
		markTypedDiff(a.finalDirty, sa.typedBySent, nil)
		delete(a.surfaces, sa.surface)
		g.candBase.Delete(sa.surface)
		if a.track != nil {
			a.track.surfaceDeleted(sa.surface)
		}
	}
	a.dirty = nil
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].surface < dirty[j].surface })
	a.stats.Surfaces = len(a.surfaces)
	a.stats.Reused = len(a.surfaces) - len(dirty)

	// Dirty surfaces fan out one per worker exactly like globalPhase;
	// each worker touches only its own surface's entry. The old typed
	// views are captured first so the serial merge below can diff them
	// (updateSurface rewrites the entry in place).
	oldTyped := make([]map[types.SentenceKey][]types.Mention, len(dirty))
	for i, sa := range dirty {
		oldTyped[i] = sa.typedBySent
	}
	ts := g.o.now()
	kept := parallel.MapOrdered(g.pool, len(dirty), func(si int) int {
		return g.updateSurface(dirty[si])
	})
	g.o.surfacesDone(tr, ts, a.stats.Surfaces, a.stats.Reused)
	g.o.publishAmort(a.stats)

	for si, sa := range dirty {
		sa.typedBySent = typedBySentence(sa.outcome.typed)
		markTypedDiff(a.finalDirty, oldTyped[si], sa.typedBySent)
		if a.track != nil {
			a.track.surfaceWritten(sa.surface, kept[si])
		}
		if sa.outcome.skip {
			g.candBase.Delete(sa.surface)
		} else {
			g.candBase.SetClusters(sa.surface, sa.outcome.cands)
		}
	}

	if stale {
		// Republish the clean outcomes too into the fresh candidate base
		// (order is irrelevant: surfaces are distinct keys) and rebuild
		// every sentence.
		for s, sa := range a.surfaces {
			if !sa.outcome.skip {
				g.candBase.SetClusters(s, sa.outcome.cands)
			}
		}
		for p := 0; p < tb.Len(); p++ {
			tb.At(p).FinalMentions = a.rebuildFinal(p)
		}
		clear(a.finalDirty)
		a.stale = false
		return
	}

	for key := range a.finalDirty {
		delete(a.finalDirty, key)
		if p := tb.IndexOf(key); p >= 0 {
			tb.At(p).FinalMentions = a.rebuildFinal(p)
			if a.track != nil {
				a.track.finals[p] = true
			}
		}
	}
}

// updateSurface recomputes one dirty surface in place and returns how
// many leading mentions of the pool its previous outcome stood on are
// unchanged. A pool that grew by appending keeps its embedding prefix,
// distance matrix and verdict cache; a pool whose earlier mentions
// changed (a late-arriving longer surface re-shaped an old sentence's
// scan) rebuilds from the sentence rows' cached embeddings, which still
// spares the per-mention encoder work.
func (g *Globalizer) updateSurface(sa *surfaceAmort) (kept int) {
	if mentionsPrefix(sa.mentions, sa.pool) {
		kept = len(sa.mentions)
	} else {
		g.resetOutcome(sa)
	}
	ms := sa.pool
	sa.mentions = ms
	if g.lacksLocalSupport(ms) {
		sa.outcome = surfaceOutcome{surface: sa.surface, skip: true}
		return kept
	}
	o := g.o
	te := o.now()
	for i := len(sa.embs); i < len(ms); i++ {
		sa.embs = append(sa.embs, g.embedMention(ms[i]))
	}
	if o != nil {
		o.stageEmbed.Observe(time.Since(te).Seconds())
	}
	tc := o.now()
	sa.dist.Grow(sa.embs, g.pool)
	clustering := sa.dist.Cluster()
	o.clusteringDone(tc, len(ms), clustering.Count, sa.dist.Replayed())
	sa.outcome = g.outcomeFromEmbeddings(sa.surface, ms, sa.embs, clustering, sa.ccache)
	return kept
}
