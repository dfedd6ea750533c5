package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"nerglobalizer/internal/classifier"
	"nerglobalizer/internal/cluster"
	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/mention"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/phrase"
	"nerglobalizer/internal/stream"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

// Mode selects how much of the pipeline runs — the ablation stages of
// Figure 3, bottom curve to top.
type Mode int

// Ablation stages.
const (
	// ModeLocalOnly stops after Local NER (the bottom curve of Fig. 3).
	ModeLocalOnly Mode = iota
	// ModeMentionExtraction adds occurrence mining with
	// majority-vote typing of each surface form.
	ModeMentionExtraction
	// ModeLocalEmbeddings classifies each mention individually from
	// its local embedding (no global pooling).
	ModeLocalEmbeddings
	// ModeFull is the complete pipeline with global candidate
	// embeddings (the top curve).
	ModeFull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeLocalOnly:
		return "LocalNER"
	case ModeMentionExtraction:
		return "+MentionExtraction"
	case ModeLocalEmbeddings:
		return "+LocalEmbeddings"
	default:
		return "+GlobalEmbeddings"
	}
}

// Globalizer is the assembled NER Globalizer system.
type Globalizer struct {
	cfg Config

	// pool shards the pipeline's data-parallel hot paths. Sized from
	// cfg.Workers (0 = GOMAXPROCS, 1 = serial); output is identical at
	// every width, so it only trades wall-clock.
	pool *parallel.Pool
	// prec is the active inference precision tier — the one place it is
	// held; every Local NER call receives it as an argument. Written by
	// SetPrecision only, which must not run concurrently with a cycle.
	prec nn.Precision

	Tagger   *localner.Tagger
	Embedder *phrase.Embedder
	// Classifier is the first ensemble member, kept for direct access;
	// classification averages the probability vectors of Ensemble.
	Classifier *classifier.Classifier
	Ensemble   []*classifier.Classifier

	// Per-stream state, reset by Reset.
	trie      *ctrie.Trie
	tweetBase *stream.TweetBase
	candBase  *stream.CandidateBase
	// amort carries the cross-cycle caches of the continuous execution
	// setup (embeddings, scans, surface outcomes) of the whole stream;
	// see amortize.go. nil once a write it cannot follow dropped it (or
	// with caching off): every cycle then runs the scratch globalPhase
	// until Reset.
	amort *amortizer
	// states holds the running cycle's token states by stream position
	// (see mentionStates); every cycle body clears it at its tail.
	states   map[int]*nn.Matrix
	statesMu sync.Mutex
	// uncached makes Reset start streams without an amortizer, so every
	// cycle runs the scratch globalPhase — the oracle the package's
	// identity tests compare the amortized path against (see setCaching).
	uncached bool
	// shardIndex/shardCount restrict the Global NER phase to surface
	// forms this engine owns in a sharded fleet (see SetShardOwnership);
	// shardCount <= 1 — the default — owns everything.
	shardIndex, shardCount int
	// o is the observability hook set (see obs.go); nil — the default —
	// keeps every record point a single branch on the hot path.
	o *pipeObs
}

// New builds a Globalizer with untrained components. Callers normally
// follow with PretrainEncoder, FineTuneLocal and TrainGlobal (or use
// the Trainer in train.go).
func New(cfg Config) *Globalizer {
	g := &Globalizer{
		cfg:      cfg,
		pool:     parallel.New(cfg.Workers),
		Tagger:   localner.NewTagger(transformer.NewEncoder(cfg.Encoder), cfg.FineTuneLR),
		Embedder: phrase.NewEmbedder(cfg.Encoder.Dim, cfg.Seed+1),
	}
	g.Tagger.BatchTokens = cfg.InferBatchTokens
	g.Ensemble = newEnsemble(cfg)
	g.Classifier = g.Ensemble[0]
	// Apply the configured precision tier; like Encoder.validate, an
	// invalid configuration is a programming error, not a fallback.
	prec, err := nn.ParsePrecision(cfg.InferPrecision)
	if err != nil {
		panic(err)
	}
	if err := g.SetPrecision(prec); err != nil {
		panic(err)
	}
	g.Reset()
	return g
}

// newEnsemble builds EnsembleSize independently seeded classifiers.
func newEnsemble(cfg Config) []*classifier.Classifier {
	n := cfg.EnsembleSize
	if n < 1 {
		n = 1
	}
	out := make([]*classifier.Classifier, n)
	for i := range out {
		out[i] = classifier.New(cfg.Encoder.Dim, cfg.Seed+2+int64(i)*101)
	}
	return out
}

// classify averages the ensemble's probability vectors for a cluster
// and returns the winning class with its mean probability.
func (g *Globalizer) classify(embs [][]float64) (types.EntityType, float64) {
	if len(embs) == 0 {
		return types.None, 1
	}
	var mean, probs [types.NumClasses]float64
	for _, c := range g.Ensemble {
		c.ClassifyInto(probs[:], embs)
		for i, p := range probs {
			mean[i] += p
		}
	}
	for i := range mean {
		mean[i] /= float64(len(g.Ensemble))
	}
	best := 0
	for i, p := range mean {
		if p > mean[best] {
			best = i
		}
	}
	return types.EntityType(best), mean[best]
}

// Config returns the pipeline configuration.
func (g *Globalizer) Config() Config { return g.cfg }

// SetWorkers resizes the worker pool used by the data-parallel hot
// paths: 0 selects GOMAXPROCS, 1 forces serial execution. Output is
// identical at every setting. Useful after loading a checkpoint whose
// saved config pinned a different width.
func (g *Globalizer) SetWorkers(workers int) {
	g.cfg.Workers = workers
	g.pool = parallel.New(workers)
	if g.o != nil {
		// The fresh pool inherits the attached registry so pool metrics
		// survive a resize.
		g.pool.SetObserver(g.o.reg)
	}
}

// Workers returns the configured pool width.
func (g *Globalizer) Workers() int { return g.pool.Workers() }

// SetInferBatch re-caps the tokens packed per encoder inference call
// (0 runs every sentence alone). Annotations are byte-identical
// at every setting; the knob trades kernel shapes for wall-clock only.
// Useful after loading a checkpoint saved before batching existed,
// whose config decodes with packing off.
func (g *Globalizer) SetInferBatch(tokens int) {
	g.cfg.InferBatchTokens = tokens
	g.Tagger.BatchTokens = tokens
}

// SetPrecision switches Local NER inference onto the given precision
// tier, eagerly builds the packed weight mirrors the tier reads (so the
// first cycle after the switch does not pay for packing) and records
// the tier in the config (so checkpoints round-trip the setting). F64
// restores the exact, bit-identical-to-training path. It never fails;
// the error result is kept for its callers.
func (g *Globalizer) SetPrecision(p nn.Precision) error {
	g.Tagger.Encoder().WarmPacks(p)
	g.prec = p
	g.cfg.InferPrecision = p.String()
	g.o.setPrecision(p)
	return nil
}

// Precision returns the active inference precision tier.
func (g *Globalizer) Precision() nn.Precision { return g.prec }

// WithObjective returns a new Globalizer that shares this one's
// (already trained) Local NER tagger but carries fresh, untrained
// Global NER components configured for the given contrastive
// objective. Used to compare the two Phrase Embedder objectives
// (Table II) without re-training the language model.
func (g *Globalizer) WithObjective(obj Objective) *Globalizer {
	cfg := g.cfg
	cfg.Objective = obj
	cfg.Seed += 40 + int64(obj)*7
	v := &Globalizer{
		cfg:      cfg,
		pool:     g.pool,
		prec:     g.prec,
		Tagger:   g.Tagger,
		Embedder: phrase.NewEmbedder(cfg.Encoder.Dim, cfg.Seed+10),
	}
	v.Ensemble = newEnsemble(cfg)
	v.Classifier = v.Ensemble[0]
	v.Reset()
	return v
}

// AllParams returns every trainable parameter of the assembled system
// — the Local NER tagger (encoder plus head), the Phrase Embedder, and
// every Entity Classifier in the ensemble — for checkpointing.
func (g *Globalizer) AllParams() []*nn.Param {
	ps := g.Tagger.Params()
	ps = append(ps, g.Embedder.Params()...)
	for _, c := range g.Ensemble {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// WithClusterThreshold returns a view of this Globalizer that shares
// every trained component but clusters candidate mentions at a
// different agglomerative threshold. Used by the threshold-sweep
// ablation bench.
func (g *Globalizer) WithClusterThreshold(th float64) *Globalizer {
	cfg := g.cfg
	cfg.ClusterThreshold = th
	v := &Globalizer{
		cfg:        cfg,
		pool:       g.pool,
		prec:       g.prec,
		Tagger:     g.Tagger,
		Embedder:   g.Embedder,
		Classifier: g.Classifier,
		Ensemble:   g.Ensemble,
	}
	v.Reset()
	return v
}

// SetShardOwnership restricts the Global NER phase to the surface
// forms owned by shard index in a fleet of count engines (ownership is
// ctrie.OwnerShard of the canonical surface). Every shard still
// replicates the full stream — trie scans resolve overlaps across the
// whole trie, so mention extraction must see everything — but the
// expensive per-surface steps (embedding, clustering, classification)
// run only for owned surfaces, and FinalMentions and the CandidateBase
// carry owned surfaces only. Because those steps are pure functions of
// a surface's own mention pool, the union of K shards' outputs is
// byte-identical to an unsharded run. Resets stream state: ownership
// must be fixed for the lifetime of a stream.
func (g *Globalizer) SetShardOwnership(index, count int) error {
	if count < 1 || index < 0 || index >= count {
		return fmt.Errorf("core: invalid shard ownership %d of %d", index, count)
	}
	g.shardIndex, g.shardCount = index, count
	g.Reset()
	return nil
}

// ownsSurface reports whether this engine's Global NER phase processes
// the canonical surface form.
func (g *Globalizer) ownsSurface(surface string) bool {
	return g.shardCount <= 1 || ctrie.OwnerShard(surface, g.shardCount) == g.shardIndex
}

// ownedSurfaces filters a sorted surface list down to owned ones,
// in place (the caller's slice is freshly built).
func (g *Globalizer) ownedSurfaces(surfaces []string) []string {
	if g.shardCount <= 1 {
		return surfaces
	}
	out := surfaces[:0]
	for _, s := range surfaces {
		if g.ownsSurface(s) {
			out = append(out, s)
		}
	}
	return out
}

// Reset clears all per-stream state (CTrie, TweetBase, CandidateBase)
// so the same trained system can process a fresh stream.
func (g *Globalizer) Reset() {
	g.trie = ctrie.New()
	g.tweetBase = stream.NewTweetBase()
	g.candBase = stream.NewCandidateBase()
	g.amort = nil
	if !g.uncached {
		g.amort = newAmortizer()
	}
	g.states = make(map[int]*nn.Matrix)
}

// setCaching toggles the cross-cycle amortization layer; only the
// package's tests turn it off, to run the scratch recomputation as
// their reference. Annotations are byte-identical either way. Turning
// it off drops the amortizer at once; turning it on takes effect at the
// next Reset.
func (g *Globalizer) setCaching(enabled bool) {
	g.uncached = !enabled
	if !enabled {
		g.amort = nil
	}
}

// TweetBase exposes the per-sentence records of the current stream.
func (g *Globalizer) TweetBase() *stream.TweetBase { return g.tweetBase }

// CandidateBase exposes the candidate clusters of the current stream.
func (g *Globalizer) CandidateBase() *stream.CandidateBase { return g.candBase }

// RunResult is the outcome of processing a stream.
type RunResult struct {
	// Local holds Local NER's entities per sentence; Final holds the
	// pipeline output at the requested mode.
	Local map[types.SentenceKey][]types.Entity
	Final map[types.SentenceKey][]types.Entity
	// LocalTime and GlobalTime split the wall-clock cost the way
	// Table IV reports it.
	LocalTime  time.Duration
	GlobalTime time.Duration
	// Candidates is the number of candidate clusters formed.
	Candidates int
}

// Run executes the pipeline over the sentences at the given mode: the
// Local NER phase proceeds batch by batch (the CTrie growing as the
// stream evolves), then the Global NER phase processes the accumulated
// stream state. Run resets per-stream state first and writes through
// the scratch path, so the stream it leaves has no amortizer: cycles
// continuing it run the scratch globalPhase until Reset.
func (g *Globalizer) Run(sents []*types.Sentence, mode Mode) *RunResult {
	g.Reset()
	g.amort = nil
	defer clear(g.states)
	res := &RunResult{}
	tr := g.o.beginCycle(g.tweetBase.Len())
	t0 := g.o.now()

	startLocal := time.Now()
	for _, batch := range stream.Batches(sents, g.cfg.BatchSize) {
		g.localPhase(batch, tr)
	}
	res.LocalTime = time.Since(startLocal)
	res.Local = g.tweetBase.LocalEntityMap()

	if mode == ModeLocalOnly {
		res.Final = res.Local
		g.o.cycleDone(tr, t0, g.tweetBase.Len(), 0)
		return res
	}

	startGlobal := time.Now()
	g.globalPhase(mode, tr)
	res.GlobalTime = time.Since(startGlobal)
	res.Final = g.tweetBase.FinalEntityMap()
	res.Candidates = g.candBase.Len()
	g.o.cycleDone(tr, t0, g.tweetBase.Len(), res.Candidates)
	return res
}

// TagBatch runs Local NER tagging — the encoder forward and BIO decode
// — over a batch without touching stream state. Per-sentence results
// are byte-identical at any batch composition (the batching contract),
// so a serving process tags a batch with it ahead of the cycle and
// hands the results to ProcessTagged or ServeCycle.
//
// TagBatch reads only the frozen model (the tagger's weights and their
// packed mirrors) and the configuration set before serving (pool width,
// precision tier, packing cap), never the stream. It is therefore safe
// to call from several goroutines at once and beside a running cycle,
// without the lock that serializes cycles; only SetWorkers,
// SetInferBatch, SetPrecision and training must not run concurrently
// with it.
func (g *Globalizer) TagBatch(batch []*types.Sentence) []*localner.Result {
	toks := make([][]string, len(batch))
	for i, s := range batch {
		toks[i] = s.Tokens
	}
	return g.Tagger.RunBatch(toks, g.pool, g.prec)
}

// ProcessTagged consumes one execution cycle of the stream: it runs the
// Local NER phase over the incoming batch (growing the CTrie and
// TweetBase) and then refreshes the Global NER phase over the whole
// accumulated stream. Unlike Run it does not reset state, so repeated
// calls realize the paper's continuous, incremental execution setup —
// candidates gather more mentions (and more reliable global
// embeddings) with every cycle. It returns the entities of the batch's
// sentences only (their local entities at ModeLocalOnly); a caller
// that wants the whole stream's reads TweetBase().FinalEntityMap() (or
// LocalEntityMap()) after the cycle. tagged, when non-nil,
// supplies the batch's tag results (index-aligned with batch, from
// TagBatch ahead of the cycle) instead of tagging here; the cycle is
// byte-identical either way when they came from an identically
// configured engine.
func (g *Globalizer) ProcessTagged(batch []*types.Sentence, tagged []*localner.Result, mode Mode) map[types.SentenceKey][]types.Entity {
	g.runCycle(batch, tagged, 0, mode)
	return g.batchEntities(batch, mode)
}

// ServeCycle is a serving replica's cycle: ProcessTagged at ModeFull
// without rendering the batch's entities, which the replica reads off
// the records. tagTime is how long tagging the batch took when it ran
// ahead of the cycle and the caller timed it (zero otherwise): the
// cycle's ner_stage_local_seconds and ner_cycle_seconds include it, so
// the engine's instruments still account for the batch's tagging.
func (g *Globalizer) ServeCycle(batch []*types.Sentence, tagged []*localner.Result, tagTime time.Duration) {
	g.runCycle(batch, tagged, tagTime, ModeFull)
}

// runCycle is the shared cycle body of ProcessTagged and ServeCycle.
// The amortizer follows ModeFull cycles only: a cycle at any other
// mode drops it, and a stream without one recomputes the global phase
// from scratch.
func (g *Globalizer) runCycle(batch []*types.Sentence, tagged []*localner.Result, tagTime time.Duration, mode Mode) {
	defer clear(g.states)
	if mode != ModeFull {
		g.amort = nil
	}
	tr := g.o.beginCycle(g.tweetBase.Len())
	// Tagging done ahead of the cycle began tagTime before it: the cycle
	// and its Local NER stage are timed from there (the trace's local
	// span starts that far before the cycle's).
	t0 := g.o.now().Add(-tagTime)
	var newSurfaces [][]string
	if tagged != nil {
		newSurfaces = g.applyTagged(batch, tagged, tr, t0)
	} else {
		newSurfaces = g.localPhase(batch, tr)
	}
	if mode == ModeLocalOnly {
		g.o.cycleDone(tr, t0, g.tweetBase.Len(), 0)
		return
	}
	if g.amort == nil {
		g.candBase = stream.NewCandidateBase()
		g.globalPhase(mode, tr)
	} else {
		g.amortizedGlobalPhase(newSurfaces, tr)
	}
	g.o.cycleDone(tr, t0, g.tweetBase.Len(), g.candBase.Len())
}

// batchEntities renders the current annotations of the batch's
// sentences — the per-sentence values FinalEntityMap (or
// LocalEntityMap at ModeLocalOnly) would contain for those keys.
func (g *Globalizer) batchEntities(batch []*types.Sentence, mode Mode) map[types.SentenceKey][]types.Entity {
	out := make(map[types.SentenceKey][]types.Entity, len(batch))
	for _, s := range batch {
		rec := g.tweetBase.Get(s.Key())
		if rec == nil {
			continue
		}
		if mode == ModeLocalOnly {
			out[s.Key()] = rec.LocalEntities
			continue
		}
		var ents []types.Entity
		for _, m := range rec.FinalMentions {
			if m.Type == types.None {
				continue
			}
			ents = append(ents, types.Entity{Span: m.Span, Type: m.Type})
		}
		out[s.Key()] = ents
	}
	return out
}

// localPhase runs Local NER over one batch: tagging, TweetBase
// recording, and CTrie seeding. Tagging — the encoder forwards, by far
// the dominant cost — goes through Tagger.RunBatch at the engine's
// tier: one span of sentences per worker item. The TweetBase and CTrie
// writes then replay serially in batch order, so the stream state is
// identical to a serial run at any worker count and any batch size. It
// returns the token sequences of surface forms newly registered in the
// CTrie this batch — the dirty set the amortized global phase keys its
// invalidation on.
func (g *Globalizer) localPhase(batch []*types.Sentence, tr *obs.Trace) [][]string {
	t0 := g.o.now()
	results := g.TagBatch(batch)
	return g.applyTagged(batch, results, tr, t0)
}

// applyTagged replays tag results into the stream state (TweetBase
// records, CTrie seeding) in batch order — the serial half of the
// local phase, shared by the cycle that tags its own batch and the one
// handed results tagged ahead (a fleet shard's). The cycle, not the
// record, keeps a result's token states, if they are at the pooling tier.
func (g *Globalizer) applyTagged(batch []*types.Sentence, results []*localner.Result, tr *obs.Trace, t0 time.Time) [][]string {
	var newSurfaces [][]string
	for i, s := range batch {
		r := results[i]
		if g.tweetBase.IndexOf(s.Key()) >= 0 {
			// A replaced record changes the sentence under a position
			// every scan, pool and embedding of the amortizer addresses.
			g.amort = nil
		}
		g.tweetBase.Add(&stream.Record{
			Sentence:      s,
			LocalEntities: r.Entities,
		})
		if g.prec == g.poolTier() {
			g.states[g.tweetBase.IndexOf(s.Key())] = r.Embeddings
		}
		for _, e := range r.Entities {
			if e.End <= len(r.Tokens) {
				toks := r.Tokens[e.Start:e.End]
				if g.trie.Insert(toks) {
					newSurfaces = append(newSurfaces, toks)
				}
			}
		}
	}
	g.o.localDone(tr, t0, len(batch), len(newSurfaces))
	return newSurfaces
}

// surfaceOutcome carries one surface form's Global NER results out of
// the parallel fan-out: its candidate clusters, in the exact order the
// serial loop would have produced them, and which candidate each
// mention of the pool it was computed over belongs to. Its typed
// mentions are not stored; appendTyped renders them from the pool.
type surfaceOutcome struct {
	surface string
	skip    bool
	cands   []*stream.Candidate
	// assign maps each pool index to the index of its candidate in cands.
	assign []int
	// members holds, index-aligned with cands, each candidate's member
	// indices into the surface's mention pool, ascending — the form
	// warm-state captures store and the next cycle's carry-over compares.
	// outcomeFromEmbeddings and restore fill it; the "+local embeddings"
	// ablation, whose outcomes are never kept, leaves it nil. Immutable
	// once set.
	members [][]int
}

// appendTyped appends to dst the typed mentions one sentence holds
// under a surface outcome: of the sentence's run pool[lo:hi] in the pool
// the outcome stands on, every mention whose candidate has a type,
// carrying that type, ordered by candidate index and then pool index.
// It appends nothing to a skipped outcome, so a nil dst stays nil when
// the sentence holds no typed mention.
func appendTyped(dst []types.Mention, oc *surfaceOutcome, pool []types.Mention, lo, hi int) []types.Mention {
	n := 0
	for i := lo; i < hi; i++ {
		if oc.typeAt(i) != types.None {
			n++
		}
	}
	if n == 0 {
		return dst
	}
	// A sentence holds few mentions of one surface: each goes straight
	// to its rank among them.
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for i := lo; i < hi; i++ {
		if oc.typeAt(i) == types.None {
			continue
		}
		r := 0
		for j := lo; j < hi; j++ {
			if j != i && oc.typeAt(j) != types.None && (oc.assign[j] < oc.assign[i] || oc.assign[j] == oc.assign[i] && j < i) {
				r++
			}
		}
		m := pool[i]
		m.Type = oc.typeAt(i)
		out[r] = m
	}
	return dst[:len(dst)+n]
}

// typeAt returns the type a surface outcome gives the mention at pool
// index i: its candidate's, or None when the outcome is skipped.
func (oc *surfaceOutcome) typeAt(i int) types.EntityType {
	if oc.skip {
		return types.None
	}
	return oc.cands[oc.assign[i]].Type
}

// runEnd returns the end of the run of pool entries from lo on that
// belong to pool[lo]'s sentence. Pools are ordered by stream position,
// so a sentence's mentions of one surface are one run.
func runEnd(pool []types.Mention, lo int) int {
	hi := lo + 1
	for hi < len(pool) && pool[hi].Key == pool[lo].Key {
		hi++
	}
	return hi
}

// globalPhase runs the four Global NER steps over the whole TweetBase.
func (g *Globalizer) globalPhase(mode Mode, tr *obs.Trace) {
	// Step 1: mention extraction across the accumulated stream, the
	// per-sentence trie scans sharded over the pool (the frozen trie is
	// read-only here).
	t0 := g.o.now()
	var sents []*types.Sentence
	g.tweetBase.Each(func(r *stream.Record) { sents = append(sents, r.Sentence) })
	mentions := mention.ExtractBatchPool(sents, g.trie, g.tweetBase.LocalEntityMap(), g.pool)
	g.o.extractDone(tr, t0, len(mentions), len(sents), 0)

	if mode == ModeMentionExtraction {
		g.assignMajorityTypes(mentions)
		return
	}

	// Steps 2–4 are independent per surface form, so embedding,
	// clustering and classification fan out one surface per worker —
	// every model involved runs its cache-free inference path, and the
	// TweetBase is only read now that the local phase is done. Workers
	// return their results at the surface's own index; the merge below
	// replays them in sorted surface order, so the CandidateBase and the
	// typed mentions are identical to a serial run at any worker count.
	groups := mention.GroupBySurface(mentions)
	surfaces := g.ownedSurfaces(sortedKeys(groups))
	ts := g.o.now()
	outcomes := parallel.MapOrdered(g.pool, len(surfaces), func(si int) surfaceOutcome {
		return g.processSurface(surfaces[si], groups[surfaces[si]], mode)
	})
	g.o.surfacesDone(tr, ts, len(surfaces), 0)

	finalBySent := make(map[types.SentenceKey][]types.Mention)
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.skip {
			continue
		}
		g.candBase.SetClusters(oc.surface, oc.cands)
		ms := groups[oc.surface]
		for lo := 0; lo < len(ms); {
			hi := runEnd(ms, lo)
			if typed := appendTyped(finalBySent[ms[lo].Key], oc, ms, lo, hi); typed != nil {
				finalBySent[ms[lo].Key] = typed
			}
			lo = hi
		}
	}
	g.tweetBase.Each(func(r *stream.Record) {
		r.FinalMentions = finalBySent[r.Sentence.Key()]
	})
}

// processSurface runs Global NER steps 2–4 for one surface form and
// returns its outcome. It only reads shared state, so many surfaces
// can process concurrently.
func (g *Globalizer) processSurface(surface string, ms []types.Mention, mode Mode) surfaceOutcome {
	if g.lacksLocalSupport(ms) {
		return surfaceOutcome{surface: surface, skip: true}
	}
	o := g.o
	// Step 2: local mention embeddings (eqs. 1–3). The scratch path runs
	// without an amortizer, so embedMention caches none of them.
	te := o.now()
	embs := make([][]float64, len(ms))
	for i, m := range ms {
		embs[i] = g.embedMention(m)
	}
	if o != nil {
		o.stageEmbed.Observe(time.Since(te).Seconds())
	}

	if mode == ModeLocalEmbeddings {
		return g.classifyEachMention(surface, ms, embs)
	}

	// Step 3: candidate cluster generation (Section V-C): one Cluster
	// call on a fresh distance matrix, the merge loop the amortized path
	// runs. The O(n²) distance matrix shards its columns over the pool;
	// the merge loop stays serial so merge order is unchanged.
	tc := o.now()
	dist := cluster.NewDistMatrix(g.cfg.ClusterThreshold, cluster.AverageLinkage)
	dist.Grow(embs, g.pool)
	clustering := dist.Cluster()
	o.clusteringDone(tc, dist.Rows(), clustering.Count, 0)
	return g.outcomeFromEmbeddings(surface, ms, embs, clustering, nil, 0)
}

// classifyEachMention is the "+local embeddings" ablation's step 4:
// every mention is classified from its own local embedding, with no
// clustering or pooling, and becomes a candidate of its own.
func (g *Globalizer) classifyEachMention(surface string, ms []types.Mention, embs [][]float64) surfaceOutcome {
	oc := surfaceOutcome{surface: surface}
	for i, m := range ms {
		tc := g.o.now()
		et, conf := g.classify([][]float64{embs[i]})
		if g.o != nil {
			g.o.stageClassify.Observe(time.Since(tc).Seconds())
			g.o.clustersClassified.Inc()
		}
		m.Type = et
		oc.cands = append(oc.cands, &stream.Candidate{
			Surface: surface, ClusterID: i,
			Mentions:   []types.Mention{m},
			Embs:       [][]float64{embs[i]},
			Type:       et,
			Confidence: conf,
		})
		oc.assign = append(oc.assign, i)
	}
	return oc
}

// outcomeFromEmbeddings runs Global NER step 4 (global pooling +
// Entity Classifier, Section V-D) over already-embedded mentions and
// an already-computed clustering. It is the shared tail of the scratch
// and amortized paths, so the two stay equivalent by construction.
//
// prev, when non-nil, is the surface's previous outcome, computed over
// a pool whose first kept mentions (and their embeddings) are this
// one's. A cluster's type and confidence are pure functions of its
// members, so a cluster prev already held — all its members below kept,
// and exactly the members of the candidate prev put the first of them
// in — keeps prev's candidate: the same pointer when its id is
// unchanged, a copy under the new id otherwise. Only the clusters the
// new mentions reshaped are classified. The scratch path passes nil and
// computes every cluster.
func (g *Globalizer) outcomeFromEmbeddings(surface string, ms []types.Mention, embs [][]float64, clustering cluster.Result, prev *surfaceOutcome, kept int) surfaceOutcome {
	members := clustering.Members()
	oc := surfaceOutcome{
		surface: surface,
		cands:   make([]*stream.Candidate, len(members)),
		assign:  clustering.Assignments,
		members: members,
	}
	for cid, idxs := range members {
		if cand := prev.carried(idxs, kept); cand != nil {
			if cand.ClusterID != cid {
				moved := *cand
				moved.ClusterID = cid
				cand = &moved
			}
			oc.cands[cid] = cand
			if g.o != nil {
				g.o.verdictCacheHits.Inc()
			}
			continue
		}
		cand := &stream.Candidate{
			Surface: surface, ClusterID: cid,
			Mentions: make([]types.Mention, len(idxs)),
			Embs:     make([][]float64, len(idxs)),
		}
		for j, i := range idxs {
			cand.Mentions[j], cand.Embs[j] = ms[i], embs[i]
		}
		cand.Type, cand.Confidence = g.decideClusterType(cand.Mentions, cand.Embs)
		oc.cands[cid] = cand
	}
	return oc
}

// carried returns the candidate of oc that is exactly the cluster
// idxs of a pool whose first kept mentions oc stood on, or nil.
func (oc *surfaceOutcome) carried(idxs []int, kept int) *stream.Candidate {
	if oc == nil || oc.skip || idxs[len(idxs)-1] >= kept {
		return nil
	}
	k := oc.assign[idxs[0]]
	if !slices.Equal(oc.members[k], idxs) {
		return nil
	}
	return oc.cands[k]
}

// assignMajorityTypes implements the first ablation baseline: every
// mention of a surface form receives the most frequent type Local NER
// assigned to that surface (Figure 3's "+mention extraction" curve).
func (g *Globalizer) assignMajorityTypes(mentions []types.Mention) {
	groups := mention.GroupBySurface(mentions)
	finalBySent := make(map[types.SentenceKey][]types.Mention)
	for _, surface := range g.ownedSurfaces(sortedKeys(groups)) {
		ms := groups[surface]
		if g.lacksLocalSupport(ms) {
			continue
		}
		votes := make(map[types.EntityType]int)
		for _, m := range ms {
			if m.FromLocalNER && m.Type != types.None {
				votes[m.Type]++
			}
		}
		best, bestN := types.None, 0
		for _, et := range types.EntityTypes {
			if votes[et] > bestN {
				best, bestN = et, votes[et]
			}
		}
		if best == types.None {
			continue
		}
		for _, m := range ms {
			m.Type = best
			finalBySent[m.Key] = append(finalBySent[m.Key], m)
		}
	}
	g.tweetBase.Each(func(r *stream.Record) {
		r.FinalMentions = finalBySent[r.Sentence.Key()]
	})
}

// decideClusterType combines the ensemble's global classification with
// the cluster's Local NER evidence.
//
// The paper observes (Section VI-C) that mentions correctly detected
// by Local NER are rarely mislabelled at the global step, and that
// global embeddings become reliable only as mention support grows
// (Figure 4). Both observations shape the rule:
//
//   - large clusters (≥3 mentions): the global classification rules;
//     a None verdict is overturned only by a strong local consensus
//     (≥2 consistent votes covering ≥70% of locally typed mentions);
//   - small clusters (1–2 mentions): the global embedding is pooled
//     from almost no context, so an existing local label is kept
//     unless the classifier disagrees with high confidence.
//
// All engines route their cluster decisions through here, so the
// classification-stage metrics cover the batch, amortized, incremental
// and EMD paths from one record point.
func (g *Globalizer) decideClusterType(mentions []types.Mention, embs [][]float64) (types.EntityType, float64) {
	tc := g.o.now()
	et, conf := g.decideCluster(mentions, embs)
	if g.o != nil {
		g.o.stageClassify.Observe(time.Since(tc).Seconds())
		g.o.clustersClassified.Inc()
	}
	return et, conf
}

// decideCluster is decideClusterType's decision body.
func (g *Globalizer) decideCluster(mentions []types.Mention, embs [][]float64) (types.EntityType, float64) {
	et, conf := g.classify(embs)
	lv, votes, n := localVote(mentions)
	if len(mentions) <= 2 {
		if lv != types.None && (et == types.None || conf < g.guardOverrideConf()) && et != lv {
			return lv, float64(votes) / float64(max(n, 1))
		}
		return et, conf
	}
	if et == types.None && n >= 2 && float64(votes) >= 0.7*float64(n) {
		return lv, float64(votes) / float64(n)
	}
	return et, conf
}

// guardOverrideConf is the ensemble confidence required to override a
// local label on a small cluster.
func (g *Globalizer) guardOverrideConf() float64 {
	if g.cfg.GuardOverrideConf > 0 {
		return g.cfg.GuardOverrideConf
	}
	return 0.75
}

// lacksLocalSupport reports whether a surface form's mention set is
// large yet almost never confirmed by Local NER — the signature of a
// stray false positive ("the", a hashtag) flooding occurrence mining.
func (g *Globalizer) lacksLocalSupport(ms []types.Mention) bool {
	return g.lacksSupport(len(ms), localMentions(ms))
}

// lacksSupport is lacksLocalSupport's verdict on a mention set of n
// mentions, local of them typed by Local NER.
func (g *Globalizer) lacksSupport(n, local int) bool {
	minMentions := g.cfg.MinSupportMentions
	if minMentions <= 0 || g.cfg.MinLocalSupport <= 0 || n < minMentions {
		return false
	}
	return float64(local) < g.cfg.MinLocalSupport*float64(n)
}

// localMentions counts the mentions Local NER typed.
func localMentions(ms []types.Mention) int {
	local := 0
	for _, m := range ms {
		if m.FromLocalNER && m.Type != types.None {
			local++
		}
	}
	return local
}

// localVote returns the majority Local NER type among a cluster's
// mentions, its vote count, and the total number of locally typed
// mentions.
func localVote(mentions []types.Mention) (types.EntityType, int, int) {
	votes := make(map[types.EntityType]int)
	total := 0
	for _, m := range mentions {
		if m.FromLocalNER && m.Type != types.None {
			votes[m.Type]++
			total++
		}
	}
	best, bestN := types.None, 0
	for _, et := range types.EntityTypes {
		if votes[et] > bestN {
			best, bestN = et, votes[et]
		}
	}
	return best, bestN, total
}

func sortedKeys(m map[string][]types.Mention) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
