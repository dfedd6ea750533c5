package core

import (
	"fmt"
	"sort"

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
// safe to encode concurrently with later cycles. A capture that holds
// the amortizer state also arms change tracking, so the next capture
// can be a CaptureWarmDelta against this one.
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
		ws.Records = append(ws.Records, recordState(r))
	})
	ws.Amort = g.captureAmort()
	if ws.Amort != nil {
		g.amort.arm(g.tweetBase.Len())
	} else {
		g.amort.track = nil
	}
	return ws
}

func recordState(r *stream.Record) RecordState {
	return RecordState{
		TweetID: r.Sentence.TweetID,
		SentID:  r.Sentence.SentID,
		Tokens:  r.Sentence.Tokens,
		Gold:    r.Sentence.Gold,
		Local:   r.LocalEntities,
		Emb:     r.Embeddings,
		Final:   r.FinalMentions,
	}
}

// amortCapturable reports whether the amortizer is in the clean state a
// capture can flatten: caching on, nothing stale or dirty, and every
// bookkeeping counter level with the stream and trie.
func (g *Globalizer) amortCapturable() bool {
	a := g.amort
	return !g.uncached && !a.stale && len(a.dirty) == 0 && len(a.finalDirty) == 0 &&
		a.scannedLen == g.tweetBase.Len() && a.trieLen == g.trie.Len()
}

// candStates flattens a surface outcome's candidate clusters.
func candStates(oc *surfaceOutcome) []CandState {
	if oc.skip {
		return nil
	}
	out := make([]CandState, len(oc.cands))
	for i, cand := range oc.cands {
		out[i] = CandState{
			ClusterID: cand.ClusterID,
			Members:   oc.members[i],
			GlobalEmb: cand.GlobalEmb,
			Type:      cand.Type,
			Conf:      cand.Confidence,
		}
	}
	return out
}

// spanLess orders the spans of one sentence the way a capture lists
// its embeddings.
func spanLess(a, b types.Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}

// captureAmort flattens the amortizer, or returns nil when its state is
// not cleanly capturable (see amortCapturable). nil is always safe —
// restore falls back to a cold amortizer over warm records.
func (g *Globalizer) captureAmort() *AmortState {
	a := g.amort
	if !g.amortCapturable() {
		return nil
	}
	as := &AmortState{
		ScannedLen:   a.scannedLen,
		TrieLen:      a.trieLen,
		MentionCount: a.mentionCount,
		Mode:         int(ModeFull),
		Scans:        make([]ScanState, len(a.rows)),
	}
	// The table is in stream order: scans and embeddings (spans
	// ascending within a sentence) come out in it, so snapshot bytes are
	// deterministic for a given engine state.
	for p := range a.rows {
		row := &a.rows[p]
		key := g.tweetBase.At(p).Sentence.Key()
		as.Scans[p] = ScanState{Key: key, Mentions: row.scan}
		first := len(as.Embeds)
		for sp, vec := range row.embeds {
			as.Embeds = append(as.Embeds, MentionEmbed{Key: key, Span: sp, Vec: vec})
		}
		if es := as.Embeds[first:]; len(es) > 1 {
			sort.Slice(es, func(i, j int) bool { return spanLess(es[i].Span, es[j].Span) })
		}
	}

	surfs := make([]string, 0, len(a.surfaces))
	for s := range a.surfaces {
		surfs = append(surfs, s)
	}
	sort.Strings(surfs)
	as.Surfaces = make([]SurfaceState, len(surfs))
	for i, s := range surfs {
		sa := a.surfaces[s]
		as.Surfaces[i] = SurfaceState{
			Surface: s, Pool: sa.pool, Skip: sa.outcome.skip, Cands: candStates(&sa.outcome),
		}
	}
	return as
}

// SurfaceDelta is one surface form's rewritten amortization state
// inside a WarmDelta: the surface's pool is the first PoolFrom mentions
// it had in the state the delta extends followed by Pool (PoolFrom 0
// replaces it, or introduces the surface), and Skip and Cands replace
// the outcome whole.
type SurfaceDelta struct {
	Surface  string
	PoolFrom int
	Pool     []types.Mention
	Skip     bool
	Cands    []CandState
}

// WarmDelta is what changed in the per-stream state between two
// captures, in the same flat form as WarmState: the records appended,
// and every older part a cycle rewrote, whole. Everything else — token
// embeddings, cached mention embeddings, untouched scans, pools and
// outcomes — is immutable once captured and stays in the state the
// delta extends. (*WarmState).Apply merges a delta back.
type WarmDelta struct {
	// BaseRecords is the record count of the state this delta extends.
	BaseRecords int
	// Surfaces lists the trie surfaces registered since, sorted.
	Surfaces []string
	// Records are the appended records, in stream order.
	Records []RecordState
	// Finals holds the rewritten FinalMentions of older records, in
	// stream order (ScanState is the shared key-plus-mentions shape).
	Finals []ScanState

	// The amortizer's counters, as AmortState carries them.
	ScannedLen, TrieLen, MentionCount int
	Mode                              int
	// Scans holds the rewritten scans of older records followed by the
	// scans of the appended ones, both in stream order.
	Scans []ScanState
	// Pools holds the surfaces whose outcome was rewritten, sorted;
	// Deleted the surfaces whose pool emptied, sorted.
	Pools   []SurfaceDelta
	Deleted []string
	// Embeds lists the mention embeddings cached since, in capture
	// order (stream order of the sentence, then span).
	Embeds []MentionEmbed
}

// CaptureWarmDelta flattens what changed since the previous capture
// (full or delta) in time proportional to the change, and restarts
// change tracking from here. It returns nil when a delta cannot express
// the change — no previous capture holds the amortizer state, a cycle
// ran outside the amortized path (caching off, an ablation mode), a
// sentence was replaced, or the amortizer is not cleanly capturable
// right now; the caller then takes a full CaptureWarmState. Same
// locking contract as CaptureWarmState.
func (g *Globalizer) CaptureWarmDelta() *WarmDelta {
	a := g.amort
	t := a.track
	if t == nil || !g.amortCapturable() {
		return nil
	}
	tb := g.tweetBase
	d := &WarmDelta{
		BaseRecords:  t.baseLen,
		ScannedLen:   a.scannedLen,
		TrieLen:      a.trieLen,
		MentionCount: a.mentionCount,
		Mode:         int(ModeFull),
	}
	for _, toks := range t.surfaces {
		d.Surfaces = append(d.Surfaces, types.CanonicalSurface(toks))
	}
	sort.Strings(d.Surfaces)

	// older lists the marked positions the previous capture holds, in
	// stream order.
	older := func(marked map[int]bool) []int {
		ps := make([]int, 0, len(marked))
		for p := range marked {
			if p < t.baseLen {
				ps = append(ps, p)
			}
		}
		sort.Ints(ps)
		return ps
	}
	for _, p := range older(t.finals) {
		r := tb.At(p)
		d.Finals = append(d.Finals, ScanState{Key: r.Sentence.Key(), Mentions: r.FinalMentions})
	}
	for _, p := range older(t.scans) {
		d.Scans = append(d.Scans, ScanState{Key: tb.At(p).Sentence.Key(), Mentions: a.rows[p].scan})
	}
	for p := t.baseLen; p < tb.Len(); p++ {
		r := tb.At(p)
		d.Records = append(d.Records, recordState(r))
		d.Scans = append(d.Scans, ScanState{Key: r.Sentence.Key(), Mentions: a.rows[p].scan})
	}

	surfs := make([]string, 0, len(t.pools))
	for s := range t.pools {
		surfs = append(surfs, s)
	}
	sort.Strings(surfs)
	for _, s := range surfs {
		sa, kept := a.surfaces[s], t.pools[s]
		d.Pools = append(d.Pools, SurfaceDelta{
			Surface: s, PoolFrom: kept, Pool: sa.pool[kept:],
			Skip: sa.outcome.skip, Cands: candStates(&sa.outcome),
		})
	}
	for s := range t.deleted {
		d.Deleted = append(d.Deleted, s)
	}
	sort.Strings(d.Deleted)

	// Workers logged the stored embeddings in completion order; a
	// capture lists them in stream order, then span.
	sort.Slice(t.embeds, func(i, j int) bool {
		if t.embeds[i].pos != t.embeds[j].pos {
			return t.embeds[i].pos < t.embeds[j].pos
		}
		return spanLess(t.embeds[i].span, t.embeds[j].span)
	})
	for _, e := range t.embeds {
		d.Embeds = append(d.Embeds, MentionEmbed{
			Key: tb.At(e.pos).Sentence.Key(), Span: e.span, Vec: a.rows[e.pos].embeds[e.span],
		})
	}

	a.arm(tb.Len())
	return d
}

// Apply merges a delta captured right after this state into it, so
// that a base state with its deltas applied in capture order encodes
// to the same bytes as a full capture taken where the last delta was.
// The state must hold an amortizer capture (deltas are only taken
// against one). On error the state is left partly merged and must be
// discarded.
func (ws *WarmState) Apply(d *WarmDelta) error {
	as := ws.Amort
	if as == nil {
		return fmt.Errorf("core: warm delta applied to a state without amortizer caches")
	}
	if d.Mode != int(ModeFull) {
		return fmt.Errorf("core: warm delta carries mode %d, the amortizer only runs %d (%v)", d.Mode, int(ModeFull), ModeFull)
	}
	if d.BaseRecords != len(ws.Records) || len(as.Scans) != len(ws.Records) {
		return fmt.Errorf("core: warm delta extends a state of %d records, this one has %d (%d scanned)",
			d.BaseRecords, len(ws.Records), len(as.Scans))
	}
	ws.Surfaces = mergeOrdered(ws.Surfaces, d.Surfaces, func(a, b *string) bool { return *a < *b })

	pos := make(map[types.SentenceKey]int, len(ws.Records)+len(d.Records))
	for i := range ws.Records {
		pos[types.SentenceKey{TweetID: ws.Records[i].TweetID, SentID: ws.Records[i].SentID}] = i
	}
	for i := range d.Records {
		key := types.SentenceKey{TweetID: d.Records[i].TweetID, SentID: d.Records[i].SentID}
		if _, dup := pos[key]; dup {
			return fmt.Errorf("core: warm delta repeats sentence %v", key)
		}
		pos[key] = len(ws.Records)
		ws.Records = append(ws.Records, d.Records[i])
	}
	for _, f := range d.Finals {
		i, ok := pos[f.Key]
		if !ok || i >= d.BaseRecords {
			return fmt.Errorf("core: warm delta rewrites the final mentions of %v, not an older sentence", f.Key)
		}
		ws.Records[i].Final = f.Mentions
	}

	as.ScannedLen, as.TrieLen, as.MentionCount = d.ScannedLen, d.TrieLen, d.MentionCount
	for _, sc := range d.Scans {
		i, ok := pos[sc.Key]
		switch {
		case ok && i < len(as.Scans):
			as.Scans[i].Mentions = sc.Mentions
		case ok && i == len(as.Scans):
			as.Scans = append(as.Scans, sc)
		default:
			return fmt.Errorf("core: warm delta scans %v out of stream order", sc.Key)
		}
	}
	if len(as.Scans) != len(ws.Records) {
		return fmt.Errorf("core: warm delta leaves %d scans for %d records", len(as.Scans), len(ws.Records))
	}

	surfaces, err := mergeSurfaces(as.Surfaces, d.Pools, d.Deleted)
	if err != nil {
		return err
	}
	as.Surfaces = surfaces

	// Both embedding lists are in capture order over the same stream
	// positions; a linear merge keeps that order.
	at := func(key types.SentenceKey) int {
		if i, ok := pos[key]; ok {
			return i
		}
		return -1
	}
	for i := range d.Embeds {
		if at(d.Embeds[i].Key) < 0 {
			return fmt.Errorf("core: warm delta embeds a mention of unknown sentence %v", d.Embeds[i].Key)
		}
	}
	as.Embeds = mergeOrdered(as.Embeds, d.Embeds, func(a, b *MentionEmbed) bool {
		if a.Key != b.Key {
			return at(a.Key) < at(b.Key)
		}
		return spanLess(a.Span, b.Span)
	})
	return nil
}

// mergeOrdered merges two lists sorted by less into a new one; on a
// tie the element of a comes first.
func mergeOrdered[T any](a, b []T, less func(x, y *T) bool) []T {
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(&b[j], &a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeSurfaces applies a delta's surface rewrites and deletions to a
// sorted surface list.
func mergeSurfaces(old []SurfaceState, pools []SurfaceDelta, deleted []string) ([]SurfaceState, error) {
	drop := make(map[string]bool, len(deleted)+len(pools))
	for _, s := range deleted {
		drop[s] = true
	}
	fresh := make([]SurfaceState, len(pools))
	for j := range pools {
		sd := &pools[j]
		var prev []types.Mention
		if i := sort.Search(len(old), func(i int) bool { return old[i].Surface >= sd.Surface }); i < len(old) && old[i].Surface == sd.Surface {
			prev = old[i].Pool
		}
		if sd.PoolFrom < 0 || sd.PoolFrom > len(prev) {
			return nil, fmt.Errorf("core: warm delta keeps %d mentions of %q, the pool has %d", sd.PoolFrom, sd.Surface, len(prev))
		}
		// Copy: prev may share its backing array with a live engine.
		pool := make([]types.Mention, 0, sd.PoolFrom+len(sd.Pool))
		pool = append(append(pool, prev[:sd.PoolFrom]...), sd.Pool...)
		fresh[j] = SurfaceState{Surface: sd.Surface, Pool: pool, Skip: sd.Skip, Cands: sd.Cands}
		drop[sd.Surface] = true
	}
	kept := make([]SurfaceState, 0, len(old))
	for i := range old {
		if !drop[old[i].Surface] {
			kept = append(kept, old[i])
		}
	}
	return mergeOrdered(kept, fresh, func(a, b *SurfaceState) bool { return a.Surface < b.Surface }), nil
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
	g.amort.grow(g.tweetBase.Len())
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
	if as.Mode != int(ModeFull) {
		return fmt.Errorf("core: warm state caches outcomes of mode %d, the amortizer only runs %d (%v)", as.Mode, int(ModeFull), ModeFull)
	}
	if len(as.Scans) != g.tweetBase.Len() {
		return fmt.Errorf("core: warm state has %d scans for %d sentences", len(as.Scans), g.tweetBase.Len())
	}
	for p := range as.Scans {
		if key := g.tweetBase.At(p).Sentence.Key(); as.Scans[p].Key != key {
			return fmt.Errorf("core: warm state scan %d is of sentence %v, the stream holds %v there", p, as.Scans[p].Key, key)
		}
		a.rows[p].scan = as.Scans[p].Mentions
	}
	a.indexTokens(g.tweetBase)
	for i := range as.Embeds {
		e := &as.Embeds[i]
		p := g.tweetBase.IndexOf(e.Key)
		if p < 0 {
			return fmt.Errorf("core: warm state embeds a mention of unknown sentence %v", e.Key)
		}
		if a.rows[p].embeds == nil {
			a.rows[p].embeds = make(map[types.Span][]float64)
		}
		a.rows[p].embeds[e.Span] = e.Vec
	}

	for i := range as.Surfaces {
		st := &as.Surfaces[i]
		if !g.ownsSurface(st.Surface) {
			return fmt.Errorf("core: warm state pools unowned surface %q", st.Surface)
		}
		pool := st.Pool
		sa := g.newSurfaceAmort(st.Surface)
		sa.pool, sa.mentions = pool, pool
		a.surfaces[st.Surface] = sa
		if st.Skip {
			sa.outcome = surfaceOutcome{surface: st.Surface, skip: true}
			continue
		}
		// Re-derive the pool's embeddings through the (just restored)
		// cache; the distance matrix regrows lazily on the next dirty
		// cycle, which is pure over these exact float bits.
		sa.embs = make([][]float64, len(pool))
		for j := range pool {
			if g.tweetBase.IndexOf(pool[j].Key) < 0 {
				return fmt.Errorf("core: warm state pools a mention of unknown sentence %v under %q", pool[j].Key, st.Surface)
			}
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
			oc.members = append(oc.members, cs.Members)
			if cand.Type != types.None {
				for _, m := range cand.Mentions {
					m.Type = cand.Type
					oc.typed = append(oc.typed, m)
				}
			}
		}
		sa.outcome = oc
		sa.typedBySent = typedBySentence(oc.typed)
		g.candBase.SetClusters(st.Surface, oc.cands)
	}

	a.trieLen = as.TrieLen
	a.mentionCount = as.MentionCount
	return nil
}
