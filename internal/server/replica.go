package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/types"
)

// Replica is one engine replica of the stream with everything that has
// to move in step with it: the engine lock, the cycle seq, the WAL +
// snapshot log and the Merkle provenance chain. The single server is a
// Front over one Replica that owns every surface; a fleet shard is a
// frame loop over one Replica that owns its share. What a cycle does to
// the engine, what it appends, how a restart replays it and what the
// read endpoints list exist here once for both.
type Replica struct {
	// cfgMu excludes engine reconfiguration (SetObserver, the snapshot
	// restore) from tagging; taken before mu where both are held.
	cfgMu sync.RWMutex
	// mu is the engine lock: the stream state is single-writer, so every
	// cycle, replayed or live, and every read of the stream holds it.
	mu  sync.Mutex
	g   *core.Globalizer
	seq uint64 // last applied cycle

	// shard is the index inclusion proofs are labelled with, -1 on the
	// single server.
	shard int
	// gate is the owning process's readiness gate.
	gate *durable.Gate

	// Durability (nil unless Open was called); prov is guarded by mu.
	dl   *durable.Log
	prov *durable.Provenance
}

// NewReplica wraps an engine whose stream state the caller has already
// cleared; shard is -1 for the single server.
func NewReplica(g *core.Globalizer, gate *durable.Gate, shard int) *Replica {
	return &Replica{g: g, gate: gate, shard: shard}
}

func (r *Replica) kind() int {
	if r.shard < 0 {
		return durable.KindSingle
	}
	return durable.KindShard
}

// SetObserver attaches a metrics registry to the engine.
func (r *Replica) SetObserver(reg *obs.Registry) {
	r.cfgMu.Lock()
	defer r.cfgMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.g.SetObserver(reg)
}

// View runs fn on the engine under the engine lock, between two cycles.
// fn reads; it must not call back into the replica.
func (r *Replica) View(fn func(g *core.Globalizer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.g)
}

// Seq is the last applied cycle; during replay, the one reached so far.
func (r *Replica) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Durable reports whether the replica logs its cycles. A durable one
// must not be Reset: a later replay would resurrect the old stream.
func (r *Replica) Durable() bool { return r.dl != nil }

// Durability summarizes the commit path for /statusz; nil without a log.
func (r *Replica) Durability() *durable.Status {
	if r.dl == nil {
		return nil
	}
	st := r.dl.Status()
	return &st
}

// Reset clears the stream.
func (r *Replica) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.g.Reset()
	r.seq = 0
}

// Tag runs Local NER over sentences. It reads only the trained model,
// so it does not wait for a cycle holding the engine lock.
func (r *Replica) Tag(sents []durable.CycleSentence) []*localner.Result {
	r.cfgMu.RLock()
	defer r.cfgMu.RUnlock()
	return r.g.TagBatch(durable.ToSentences(sents))
}

// Applied is what one cycle left behind: the annotations it emitted for
// its batch (index-aligned; a shard's: the owned ones), the replica's
// sizes after it, and — on a durable replica — the wait that must
// succeed before the cycle is acked (a failure trips the gate before it
// is returned) plus the snapshot the schedule called for, if any. The
// caller fills the snapshot's kind-specific
// field (NextID, LastResp) and hands it to SubmitSnapshot after the ack.
type Applied struct {
	Seq         uint64
	Annotations []durable.SentenceAnnotation
	StreamSize  int
	Candidates  int
	Wait        func() error
	Snapshot    *durable.Snapshot
}

// Apply runs the next cycle over sentences. tagged carries the batch's
// Local NER results when another process computed them; nil has the
// engine tag the batch itself. A durable replica appends the cycle's
// record under the engine lock — with more than one caller admitted,
// WAL order is commit order — and a failure of the append, or later of
// the wait, trips the gate: the stream has advanced past its disk, so
// acking this cycle or taking another would let a restart silently drop
// it. A cycle refused at a closed gate returns a zero Applied; one whose
// append failed returns its Seq alone, since it did run.
func (r *Replica) Apply(sentences []durable.CycleSentence, tagged []*localner.Result) (Applied, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if why, _ := r.gate.Unready(); why != "" {
		return Applied{}, errors.New(why)
	}
	out := r.apply(r.seq+1, sentences, tagged)
	if r.dl == nil {
		return out, nil
	}
	wait, err := r.dl.AppendAsync(&durable.CycleRecord{
		Seq:         out.Seq,
		Mode:        int(core.ModeFull),
		Sentences:   sentences,
		Annotations: out.Annotations,
	})
	if err != nil {
		r.gate.Trip()
		return Applied{Seq: out.Seq}, err
	}
	out.Wait = func() error {
		err := wait()
		if err != nil {
			r.gate.Trip()
		}
		return err
	}
	r.prov.AppendCycle(out.Seq, out.Annotations)
	if r.dl.ShouldSnapshot(out.Seq) {
		out.Snapshot = r.dl.EngineSnapshot(r.kind(), out.Seq, r.g, r.prov)
	}
	return out, nil
}

// apply is the cycle itself, live or replayed: always the complete
// pipeline. Called under mu.
func (r *Replica) apply(seq uint64, sentences []durable.CycleSentence, tagged []*localner.Result) Applied {
	r.g.ProcessTagged(durable.ToSentences(sentences), tagged, core.ModeFull)
	r.seq = seq
	out := Applied{
		Seq:         seq,
		Annotations: make([]durable.SentenceAnnotation, len(sentences)),
		StreamSize:  r.g.TweetBase().Len(),
		Candidates:  r.g.CandidateBase().Len(),
	}
	for i, cs := range sentences {
		out.Annotations[i] = r.annotation(types.SentenceKey{TweetID: cs.TweetID, SentID: cs.SentID})
	}
	return out
}

// annotation renders one sentence's current annotations for the reply,
// the WAL and the Merkle leaf alike: the typed entries of the record's
// FinalMentions, carrying the canonical (trie) surface. That surface is
// what the engine sorts a sentence's mentions by, so the router's k-way
// group merge on it reproduces the single-process order exactly — and
// it is the string Sentence.SurfaceAt renders for the span: the trie
// matched the span by the per-token lower-casing types.CanonicalSurface
// joins. Called under mu.
func (r *Replica) annotation(key types.SentenceKey) durable.SentenceAnnotation {
	a := durable.SentenceAnnotation{TweetID: key.TweetID, SentID: key.SentID}
	rec := r.g.TweetBase().Get(key)
	if rec == nil {
		return a
	}
	for _, m := range rec.FinalMentions {
		if m.Type == types.None {
			continue
		}
		a.Entities = append(a.Entities, durable.Entity{
			Start:   m.Span.Start,
			End:     m.Span.End,
			Type:    m.Type,
			Surface: m.Surface,
		})
	}
	return a
}

// Entities lists the whole stream's current annotations in insertion
// order (a shard's: the owned ones).
func (r *Replica) Entities() []durable.SentenceAnnotation {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := r.g.TweetBase().Keys()
	out := make([]durable.SentenceAnnotation, len(keys))
	for i, key := range keys {
		out[i] = r.annotation(key)
	}
	return out
}

// Candidate summarizes one candidate cluster, as /candidates lists it
// and a shard ships it to the router.
type Candidate struct {
	Surface    string
	ClusterID  int
	Type       types.EntityType
	Mentions   int
	Confidence float64
}

// Candidates lists the candidate clusters in sorted-surface order.
func (r *Replica) Candidates() []Candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Candidate
	for _, c := range r.g.CandidateBase().All() {
		out = append(out, Candidate{
			Surface:    c.Surface,
			ClusterID:  c.ClusterID,
			Type:       c.Type,
			Mentions:   c.MentionCount(),
			Confidence: c.Confidence,
		})
	}
	return out
}

// Open opens (or creates) the data directory and returns what it holds
// for Replay, which the caller runs behind its gate, before serving.
func (r *Replica) Open(dir string, opts durable.Options, reg *obs.Registry) (*durable.Recovery, error) {
	dl, rec, err := durable.Open(dir, opts, reg)
	if err != nil {
		return nil, err
	}
	r.dl = dl
	return rec, nil
}

// Replay restores the snapshot and re-executes the WAL tail, each
// record through the apply a live cycle runs, self-tagged, and checks
// what it rendered against the logged annotations — a divergence means
// this process is not running the configuration that wrote the log, and
// recovery fails rather than serving a silently different stream. The
// engine lock is taken per cycle, so status reads see the replay
// advance. It returns the last replayed cycle (Seq 0: none).
func (r *Replica) Replay(rec *durable.Recovery) (Applied, error) {
	t0 := time.Now()
	prov := durable.NewProvenance()
	if snap := rec.Snapshot; snap != nil {
		if snap.Kind != r.kind() {
			return Applied{}, fmt.Errorf("server: data dir was written by process kind %d, not kind %d", snap.Kind, r.kind())
		}
		if snap.Warm == nil {
			return Applied{}, fmt.Errorf("server: snapshot at seq %d has no engine state", snap.Seq)
		}
		r.cfgMu.Lock()
		r.mu.Lock()
		err := r.g.RestoreWarmState(snap.Warm)
		r.seq = snap.Seq
		r.mu.Unlock()
		r.cfgMu.Unlock()
		if err != nil {
			return Applied{}, err
		}
		prov = durable.RestoreProvenance(snap.Provenance)
	}
	var last Applied
	for _, cr := range rec.Tail {
		if cr.Mode != int(core.ModeFull) {
			return Applied{}, fmt.Errorf("server: logged cycle %d ran at mode %d, a replica only runs %d (%v)", cr.Seq, cr.Mode, int(core.ModeFull), core.ModeFull)
		}
		r.mu.Lock()
		last = r.apply(cr.Seq, cr.Sentences, nil)
		r.mu.Unlock()
		if !durable.AnnotationsEqual(last.Annotations, cr.Annotations) {
			return Applied{}, fmt.Errorf("server: replay of cycle %d diverged from the logged annotations — model or configuration mismatch", cr.Seq)
		}
		prov.AppendCycle(cr.Seq, cr.Annotations)
	}
	r.mu.Lock()
	r.prov = prov
	r.mu.Unlock()
	r.dl.ObserveReplay(len(rec.Tail), time.Since(t0))
	return last, nil
}

// SubmitSnapshot hands a snapshot Apply captured to the log's writer.
func (r *Replica) SubmitSnapshot(snap *durable.Snapshot) { r.dl.SubmitSnapshot(snap) }

// ServeProof serves Merkle inclusion proofs over this replica's chain:
// ?tweet=N answers the bundle covering every annotated sentence of the
// tweet, verifiable offline by cmd/nerprove. The single server answers
// an array of its one bundle — the shape a router's fan-in has.
func (r *Replica) ServeProof(w http.ResponseWriter, req *http.Request) {
	if r.dl == nil {
		http.Error(w, "provenance requires -data-dir", http.StatusNotFound)
		return
	}
	if r.gate.Reject(w) {
		return
	}
	tweet, err := strconv.Atoi(req.URL.Query().Get("tweet"))
	if err != nil {
		http.Error(w, "tweet query parameter required", http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	b, ok := r.prov.BundleForTweet(tweet, r.shard)
	r.mu.Unlock()
	if !ok {
		http.Error(w, "tweet not in the annotated stream", http.StatusNotFound)
		return
	}
	r.dl.ProofServed()
	if r.shard < 0 {
		WriteJSON(w, []*durable.ProofBundle{b})
		return
	}
	WriteJSON(w, b)
}

// Close seals the WAL, after the caller stopped its cycles and waited
// out recovery.
func (r *Replica) Close() {
	if r.dl != nil {
		r.dl.Close()
	}
}
