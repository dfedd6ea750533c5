package core

import (
	"slices"
	"sort"
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
// continuous execution setup. Every cycle (ProcessTagged, ServeCycle)
// re-runs Global NER over the accumulated stream, so without
// amortization the per-cycle cost grows with stream length even when
// almost nothing changed. The
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
// serving). The engine holds the amortizer of its whole stream or none:
// any write the layer cannot follow — a cycle at another mode than
// ModeFull, a replaced record, Run, RunEMDGlobalizer, a restore without
// caches — drops it, and the stream runs the scratch globalPhase until
// the next Reset. The package's tests switch the layer off (setCaching)
// to get that recomputation as their oracle.

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
}

// mentionStates returns the token states mention embeddings pool over
// (eqs. 1–2) for the sentence at one stream position, at the pooling
// tier: the running cycle's tag result when applyTagged kept it, else a
// re-embed, kept too. The cycle's tail clears both, so token states
// live one cycle on every path. A re-embed is bit-identical to the tag
// result it stands in for: a sentence's encoder output does not depend
// on what it is batched with (TestInferBatchIdentityAcrossCompositions).
func (g *Globalizer) mentionStates(pos int) *nn.Matrix {
	g.statesMu.Lock()
	v := g.states[pos]
	g.statesMu.Unlock()
	if v == nil {
		// Concurrent first computations of one position are benign: both
		// produce identical matrices.
		v = g.Tagger.Embed(g.tweetBase.At(pos).Sentence.Tokens, g.poolTier())
		g.statesMu.Lock()
		g.states[pos] = v
		g.statesMu.Unlock()
	}
	return v
}

// poolTier is the tier mention embeddings pool token states from: the
// engine's, or f32 at i8. Quantized weights shift mention embeddings by
// ~1.5e-2 in cosine distance, far above the ~1e-4 near-tie margins that
// decide average-linkage merge order, so clustering — and with it
// candidate identity — would diverge from the exact path. Re-embedding
// only the mentioned sentences keeps the tagging hot path fully
// quantized while the global phase sees f32-grade geometry.
func (g *Globalizer) poolTier() nn.Precision {
	if g.prec == nn.I8 {
		return nn.F32
	}
	return g.prec
}

// embedMention returns the local mention embedding, computing it on
// first use and storing it in the sentence's row while the engine holds
// its amortizer. Concurrent callers may compute the same entry twice;
// both compute identical values, so the race is benign.
func (g *Globalizer) embedMention(m types.Mention) []float64 {
	pos := g.tweetBase.IndexOf(m.Key)
	a := g.amort
	if a != nil {
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
		if pos < g.o.cycleFirst {
			g.o.embedsLate.Inc()
		}
	}
	v := g.Embedder.Embed(g.mentionStates(pos), m.Span)
	if a == nil {
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
// mention pool, and the finished outcome (candidate clusters plus each
// mention's cluster) with the embeddings and distance matrix (in the
// state its clustering ended in) it was computed over. The outcome is
// valid exactly while the pool is unchanged; a pool that grew by
// appending reuses the embedding and distance prefixes, and the
// clusters it left untouched.
type surfaceAmort struct {
	surface string
	// pool mirrors mention.GroupBySurface over the whole stream for this
	// surface — its mentions ordered by (stream position, span) — but is
	// maintained incrementally from scan diffs instead of being rebuilt
	// per cycle, so steady-state cycle cost tracks what changed, not
	// stream length. Unowned surfaces (sharded fleets) have no entry.
	pool []types.Mention
	// at holds the stream position of every pool entry, index-aligned
	// with pool, so a sentence's run is found without a key lookup.
	at []int
	// local counts the pool's mentions Local NER typed, so the
	// local-support verdict reads no pool. splicePool keeps it; a
	// restore recounts it.
	local int
	// dirty marks a pool that changed since the outcome was computed;
	// the entry is on amortizer.dirty exactly while it is set.
	dirty bool
	// reshaped marks a pool that changed other than by appending since
	// the outcome was computed, so the outcome's mentions are no longer
	// its prefix. splicePool sets it; updateSurface reads and clears it.
	reshaped bool
	// mentions is the pool the outcome below stands on: the pool itself
	// between cycles, its previous value while scan diffs splice it.
	mentions []types.Mention
	embs     [][]float64
	dist     *cluster.DistMatrix
	outcome  surfaceOutcome
}

// newSurfaceAmort returns the empty state of a surface.
func (g *Globalizer) newSurfaceAmort(surface string) *surfaceAmort {
	sa := &surfaceAmort{surface: surface}
	g.resetOutcome(sa)
	return sa
}

// resetOutcome drops what a surface's outcome was computed over: a
// distance matrix fixed to the engine's clustering parameters takes its
// place.
func (g *Globalizer) resetOutcome(sa *surfaceAmort) {
	sa.mentions, sa.embs = nil, nil
	sa.dist = cluster.NewDistMatrix(g.cfg.ClusterThreshold, cluster.AverageLinkage)
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
	// side: every row's embeds, and track.embeds. All else is written
	// by the cycle's serial body alone.
	mu sync.RWMutex
	// rows holds one entry per TweetBase position, grown to the stream
	// by each rescan pass and by a restore.
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
// harmlessly). The engine drops its amortizer on any trie write that
// bypasses this path, so newSurfaces is every surface the trie gained
// since the last pass.
//
// Every scan that actually changed is diffed against its predecessor,
// splicing the per-surface mention pools and marking the touched
// surfaces dirty — the bookkeeping the incremental global phase runs
// on.
func (a *amortizer) rescanPass(g *Globalizer, newSurfaces [][]string) {
	tb := g.tweetBase
	a.grow(tb.Len())
	a.stats.Sentences = tb.Len()

	// Candidate positions, ascending, so diffs apply in stream order:
	// the old sentences the inverted index lists under a new surface's
	// first token, then the never-scanned tail.
	var cands []int
	first := make(map[string]bool, len(newSurfaces))
	for _, toks := range newSurfaces {
		if f := strings.ToLower(toks[0]); !first[f] {
			first[f] = true
			cands = append(cands, a.tokIndex[f]...)
		}
	}
	sort.Ints(cands)
	cands = slices.Compact(cands)
	for p := a.scannedLen; p < tb.Len(); p++ {
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
		if !slices.Equal(row.scan, scanned[i]) {
			a.applyScanDiff(g, p, row.scan, scanned[i])
			a.mentionCount += len(scanned[i]) - len(row.scan)
			if a.track != nil {
				a.track.scans[p] = true
			}
		}
		row.scan = scanned[i]
	}

	a.indexTokens(tb)
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
		if g.ownsSurface(s) && !slices.Equal(oms, curBy[s]) {
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
// its bytes, and mark the pool reshaped. A cycle splices in ascending
// stream position, so an interior splice always lands inside the
// mentions the outcome stood on: the flag is exact.
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
	lo, hi := sa.run(pos)
	if slices.Equal(pool[lo:hi], repl) {
		return
	}
	sa.local += localMentions(repl) - localMentions(pool[lo:hi])
	if lo == len(pool) {
		sa.pool = append(pool, repl...)
		for range repl {
			sa.at = append(sa.at, pos)
		}
	} else {
		np := make([]types.Mention, 0, len(pool)-(hi-lo)+len(repl))
		np = append(np, pool[:lo]...)
		np = append(np, repl...)
		sa.pool = append(np, pool[hi:]...)
		at := make([]int, 0, len(sa.pool))
		at = append(at, sa.at[:lo]...)
		for range repl {
			at = append(at, pos)
		}
		sa.at = append(at, sa.at[hi:]...)
		sa.reshaped = true
	}
	if !sa.dirty {
		sa.dirty = true
		a.dirty = append(a.dirty, sa)
	}
}

// run returns the run pool[lo:hi] of the sentence at pos — empty, at
// the place it would go, when the sentence has no mention there.
func (sa *surfaceAmort) run(pos int) (lo, hi int) {
	lo, _ = slices.BinarySearch(sa.at, pos)
	hi = lo
	for hi < len(sa.at) && sa.at[hi] == pos {
		hi++
	}
	return lo, hi
}

// markTyped marks every sentence whose typed mentions of one surface
// differ between two of its outcomes, old over oldPool and cur over
// curPool, by one merge walk over the two pools, sentence run by
// sentence run. Both are ordered by stream position, so runs of one
// sentence meet; over a kept prefix the two keys agree and no position
// is looked up. A surface that left is a walk against an empty pool.
// Most runs are one mention long, and those compare without rendering.
func (a *amortizer) markTyped(tb *stream.TweetBase, old *surfaceOutcome, oldPool []types.Mention, cur *surfaceOutcome, curPool []types.Mention) {
	var ob, cb []types.Mention
	for i, j := 0, 0; i < len(oldPool) || j < len(curPool); {
		var key types.SentenceKey
		inOld := j == len(curPool)
		inCur := i == len(oldPool)
		switch {
		case inOld:
			key = oldPool[i].Key
		case inCur:
			key = curPool[j].Key
		case oldPool[i].Key == curPool[j].Key:
			key, inOld, inCur = oldPool[i].Key, true, true
		case tb.IndexOf(oldPool[i].Key) < tb.IndexOf(curPool[j].Key):
			key, inOld = oldPool[i].Key, true
		default:
			key, inCur = curPool[j].Key, true
		}
		ohi, chi := i, j
		if inOld {
			ohi = runEnd(oldPool, i)
		}
		if inCur {
			chi = runEnd(curPool, j)
		}
		var same bool
		if ohi-i == 1 && chi-j == 1 {
			om, cm := oldPool[i], curPool[j]
			om.Type, cm.Type = old.typeAt(i), cur.typeAt(j)
			same = om.Type == cm.Type && (om.Type == types.None || om == cm)
		} else {
			ob = appendTyped(ob[:0], old, oldPool, i, ohi)
			cb = appendTyped(cb[:0], cur, curPool, j, chi)
			same = slices.Equal(ob, cb)
		}
		if !same {
			a.finalDirty[key] = true
		}
		i, j = ohi, chi
	}
}

// rebuildFinal reassembles the FinalMentions of the sentence at pos
// from the cached outcomes of the surfaces its scan mentions — ascending
// surface order, each surface's mentions in its outcome's order — which
// is exactly the order the full rebuild produces. It runs once every
// outcome is recomputed, so each surface's outcome stands on its pool.
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
			lo, hi := sa.run(pos)
			out = appendTyped(out, &sa.outcome, sa.pool, lo, hi)
		}
	}
	return out
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
	if a.track != nil {
		a.track.surfaces = append(a.track.surfaces, newSurfaces...)
	}

	t0 := g.o.now()
	a.rescanPass(g, newSurfaces)
	g.o.extractDone(tr, t0, a.mentionCount, a.stats.Rescanned, a.stats.Sentences-a.stats.Rescanned)

	// Surfaces whose pool emptied (a late longer surface shadowing every
	// match) disappear from every output.
	dirty := a.dirty[:0]
	for _, sa := range a.dirty {
		sa.dirty = false
		if len(sa.pool) > 0 {
			dirty = append(dirty, sa)
			continue
		}
		a.markTyped(tb, &sa.outcome, sa.mentions, &surfaceOutcome{}, nil)
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
	// each worker touches only its own surface's entry. The old outcomes
	// and the pools they stand on are kept first so the serial merge
	// below can diff them (updateSurface rewrites the entry in place).
	type standing struct {
		outcome surfaceOutcome
		pool    []types.Mention
	}
	old := make([]standing, len(dirty))
	for i, sa := range dirty {
		old[i] = standing{sa.outcome, sa.mentions}
	}
	ts := g.o.now()
	kept := parallel.MapOrdered(g.pool, len(dirty), func(si int) int {
		return g.updateSurface(dirty[si])
	})
	g.o.surfacesDone(tr, ts, a.stats.Surfaces, a.stats.Reused)
	g.o.publishAmort(a.stats)

	for si, sa := range dirty {
		a.markTyped(tb, &old[si].outcome, old[si].pool, &sa.outcome, sa.mentions)
		if a.track != nil {
			a.track.surfaceWritten(sa.surface, kept[si])
		}
		if sa.outcome.skip {
			g.candBase.Delete(sa.surface)
		} else {
			g.candBase.SetClusters(sa.surface, sa.outcome.cands)
		}
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
// its distance matrix and the candidates of the clusters the new
// mentions left untouched; a reshaped pool (a late-arriving longer
// surface re-shaped an old sentence's scan) rebuilds from the sentence
// rows' cached embeddings, which still spares the per-mention encoder
// work.
func (g *Globalizer) updateSurface(sa *surfaceAmort) (kept int) {
	if sa.reshaped {
		sa.reshaped = false
		g.resetOutcome(sa)
	} else {
		kept = len(sa.mentions)
	}
	ms := sa.pool
	sa.mentions = ms
	if g.lacksSupport(len(ms), sa.local) {
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
	o.clusteringDone(tc, sa.dist.Rows(), clustering.Count, sa.dist.Kept())
	sa.outcome = g.outcomeFromEmbeddings(sa.surface, ms, sa.embs, clustering, &sa.outcome, kept)
	return kept
}
