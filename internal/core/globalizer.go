package core

import (
	"fmt"
	"sort"
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
	"nerglobalizer/internal/rnn"
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
	// setup (embeddings, scans, surface outcomes); see amortize.go.
	amort *amortizer
	// uncached routes every cycle through the scratch globalPhase
	// instead of the amortizer — the oracle the package's identity
	// tests compare the amortized path against (see setCaching).
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
	var enc localner.Encoder
	switch cfg.Kind {
	case EncoderBiGRU:
		enc = rnn.NewEncoder(rnn.Config{
			Dim:          cfg.Encoder.Dim,
			MaxLen:       cfg.Encoder.MaxLen,
			VocabBuckets: cfg.Encoder.VocabBuckets,
			CharBuckets:  cfg.Encoder.CharBuckets,
			Seed:         cfg.Encoder.Seed,
		})
	default:
		enc = transformer.NewEncoder(cfg.Encoder)
	}
	g := &Globalizer{
		cfg:      cfg,
		pool:     parallel.New(cfg.Workers),
		Tagger:   localner.NewTagger(enc, cfg.FineTuneLR),
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
	mean := make([]float64, types.NumClasses)
	for _, c := range g.Ensemble {
		_, probs := c.Classify(embs)
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
// restores the exact, bit-identical-to-training path. Returns an error
// when the encoder family has no reduced-precision kernels (the
// BiGRU); the pipeline is left on its previous tier in that case.
func (g *Globalizer) SetPrecision(p nn.Precision) error {
	if p != nn.F64 && g.cfg.Kind == EncoderBiGRU {
		return fmt.Errorf("core: encoder kind %q does not support inference precision %q", g.cfg.Kind, p)
	}
	if enc, ok := g.Tagger.Encoder().(*transformer.Encoder); ok {
		enc.WarmPacks(p)
	}
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
	g.amort = newAmortizer()
}

// setCaching toggles the cross-cycle amortization layer; only the
// package's tests turn it off, to run the scratch recomputation as
// their reference. Annotations are byte-identical either way, and
// toggling mid-stream is safe: every cache entry is validated against
// its exact inputs before reuse.
func (g *Globalizer) setCaching(enabled bool) { g.uncached = !enabled }

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
// stream state. Run resets per-stream state first.
func (g *Globalizer) Run(sents []*types.Sentence, mode Mode) *RunResult {
	g.Reset()
	res := &RunResult{}
	tr := g.o.beginCycle()
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

// ProcessBatch consumes one execution cycle of the stream: it runs the
// Local NER phase over the incoming batch (growing the CTrie and
// TweetBase) and then refreshes the Global NER phase over the whole
// accumulated stream, returning the current final entities for every
// sentence seen so far. Unlike Run it does not reset state, so
// repeated calls realize the paper's continuous, incremental execution
// setup — candidates gather more mentions (and more reliable global
// embeddings) with every cycle.
func (g *Globalizer) ProcessBatch(batch []*types.Sentence, mode Mode) map[types.SentenceKey][]types.Entity {
	g.runCycle(batch, nil, mode)
	if mode == ModeLocalOnly {
		return g.tweetBase.LocalEntityMap()
	}
	return g.tweetBase.FinalEntityMap()
}

// TagBatch runs Local NER tagging — the encoder forward and BIO decode
// — over a batch without touching stream state. Fleet routers
// partition this stage across shards: per-sentence results are
// byte-identical at any batch composition (the PR 3 contract), so any
// shard may tag any slice and the results replay everywhere via
// ProcessTagged.
func (g *Globalizer) TagBatch(batch []*types.Sentence) []*localner.Result {
	toks := make([][]string, len(batch))
	for i, s := range batch {
		toks[i] = s.Tokens
	}
	return g.Tagger.RunBatch(toks, g.pool, g.prec)
}

// ProcessTagged consumes one execution cycle exactly like ProcessBatch
// but returns entities for the batch's sentences only, skipping the
// whole-stream entity map build — the shape serving paths want, since
// /annotate answers for the submitted tweets. tagged, when non-nil,
// supplies the batch's tag results (index-aligned with batch, e.g.
// shipped from another shard that ran TagBatch) instead of tagging
// here; the cycle is byte-identical either way when they came from an
// identically configured engine.
func (g *Globalizer) ProcessTagged(batch []*types.Sentence, tagged []*localner.Result, mode Mode) map[types.SentenceKey][]types.Entity {
	g.runCycle(batch, tagged, mode)
	return g.batchEntities(batch, mode)
}

// runCycle is the shared cycle body of ProcessBatch and ProcessTagged.
// The amortizer holds the complete pipeline's state only, so a cycle at
// an ablation mode — like every cycle with caching off — recomputes the
// global phase from scratch.
func (g *Globalizer) runCycle(batch []*types.Sentence, tagged []*localner.Result, mode Mode) {
	tr := g.o.beginCycle()
	t0 := g.o.now()
	var newSurfaces [][]string
	if tagged != nil {
		newSurfaces = g.applyTagged(batch, tagged, tr, g.o.now())
	} else {
		newSurfaces = g.localPhase(batch, tr)
	}
	if mode == ModeLocalOnly {
		g.o.cycleDone(tr, t0, g.tweetBase.Len(), 0)
		return
	}
	if g.uncached || mode != ModeFull {
		g.candBase = stream.NewCandidateBase()
		g.globalPhase(mode, tr)
		// The amortizer did not see this cycle's outputs; the next
		// amortized cycle revalidates and republishes everything.
		g.amort.markStale()
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
// local phase, shared by the in-process and fleet (wire-shipped tag
// results) paths.
func (g *Globalizer) applyTagged(batch []*types.Sentence, results []*localner.Result, tr *obs.Trace, t0 time.Time) [][]string {
	var newSurfaces [][]string
	for i, s := range batch {
		r := results[i]
		if pos := g.tweetBase.IndexOf(s.Key()); pos >= 0 {
			g.amort = g.amort.recordReplaced(pos)
		}
		g.tweetBase.Add(&stream.Record{
			Sentence:      s,
			LocalEntities: r.Entities,
			Embeddings:    r.Embeddings,
		})
		// Per record, not per batch: a key the batch itself repeats is
		// replaced at a position the batch added.
		g.amort.grow(g.tweetBase.Len())
		for _, e := range r.Entities {
			if e.End <= len(r.Tokens) {
				toks := r.Tokens[e.Start:e.End]
				if g.trie.Insert(toks) {
					newSurfaces = append(newSurfaces, toks)
					if t := g.amort.track; t != nil {
						t.surfaces = append(t.surfaces, toks)
					}
				}
			}
		}
	}
	g.o.localDone(tr, t0, len(batch), len(newSurfaces))
	return newSurfaces
}

// surfaceOutcome carries one surface form's Global NER results out of
// the parallel fan-out: its candidate clusters and its typed mentions,
// each in the exact order the serial loop would have produced them.
type surfaceOutcome struct {
	surface string
	skip    bool
	cands   []*stream.Candidate
	// members holds, index-aligned with cands, each candidate's member
	// indices into the surface's mention pool — the form warm-state
	// captures store (so only outcomeFromEmbeddings, the one producer of
	// captured outcomes, fills it). Immutable once set.
	members [][]int
	typed   []types.Mention
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
	for _, oc := range outcomes {
		if oc.skip {
			continue
		}
		g.candBase.SetClusters(oc.surface, oc.cands)
		for _, m := range oc.typed {
			finalBySent[m.Key] = append(finalBySent[m.Key], m)
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
	// Step 2: local mention embeddings (eqs. 1–3), through the
	// embedding cache when enabled.
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

	// Step 3: candidate cluster generation (Section V-C). The O(n²)
	// distance matrix row-shards over the pool; the merge loop inside
	// stays serial so merge order is unchanged.
	tc := o.now()
	clustering := cluster.AgglomerativePool(embs, g.cfg.ClusterThreshold, cluster.AverageLinkage, g.pool)
	o.clusteringDone(tc, len(embs), clustering.Count, 0)
	return g.outcomeFromEmbeddings(surface, ms, embs, clustering, nil)
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
		if et != types.None {
			oc.typed = append(oc.typed, m)
		}
	}
	return oc
}

// outcomeFromEmbeddings runs Global NER step 4 (global pooling +
// Entity Classifier, Section V-D) over already-embedded mentions and
// an already-computed clustering. It is the shared tail of the scratch
// and amortized paths, so the two stay equivalent by construction.
//
// ccache, when non-nil, memoizes per-cluster verdicts by membership
// signature: over an append-only mention pool, a cluster's global
// embedding, type and confidence are pure functions of its member
// index set, so a dirty surface only re-classifies the clusters the
// new mentions actually reshaped. The scratch path passes nil and
// recomputes everything.
func (g *Globalizer) outcomeFromEmbeddings(surface string, ms []types.Mention, embs [][]float64, clustering cluster.Result, ccache map[string]*clusterVerdict) surfaceOutcome {
	oc := surfaceOutcome{surface: surface}
	for cid, idxs := range clustering.Members() {
		cand := &stream.Candidate{Surface: surface, ClusterID: cid}
		for _, i := range idxs {
			cand.Mentions = append(cand.Mentions, ms[i])
			cand.Embs = append(cand.Embs, embs[i])
		}
		key := clusterKey(idxs)
		v := ccache[key]
		if v == nil {
			tp := g.o.now()
			v = &clusterVerdict{globalEmb: g.Classifier.GlobalEmbedding(cand.Embs)}
			if g.o != nil {
				// Attention pooling (eq. 6) separated from the ensemble
				// decision timed inside decideClusterType.
				g.o.stagePool.Observe(time.Since(tp).Seconds())
			}
			v.et, v.conf = g.decideClusterType(cand.Mentions, cand.Embs)
			if ccache != nil {
				ccache[key] = v
			}
		} else if g.o != nil {
			g.o.verdictCacheHits.Inc()
		}
		cand.GlobalEmb, cand.Type, cand.Confidence = v.globalEmb, v.et, v.conf
		oc.cands = append(oc.cands, cand)
		oc.members = append(oc.members, idxs)
		if cand.Type == types.None {
			continue
		}
		for _, m := range cand.Mentions {
			m.Type = cand.Type
			oc.typed = append(oc.typed, m)
		}
	}
	return oc
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
	minMentions := g.cfg.MinSupportMentions
	if minMentions <= 0 || g.cfg.MinLocalSupport <= 0 {
		return false
	}
	if len(ms) < minMentions {
		return false
	}
	local := 0
	for _, m := range ms {
		if m.FromLocalNER && m.Type != types.None {
			local++
		}
	}
	return float64(local) < g.cfg.MinLocalSupport*float64(len(ms))
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
