package fleet

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/types"
)

// defaultShardAdmission bounds concurrently admitted mutating RPCs per
// shard. The router runs one cycle at a time, so the bound only bites
// when a shard falls behind or extra routers appear — then rejections
// surface as 503s the router can propagate instead of queue growth.
const defaultShardAdmission = 4

// shardRetryAfterSeconds is the Retry-After hint on shard saturation.
const shardRetryAfterSeconds = 1

// Shard wraps one engine replica as the fleet's unit of scale-out: it
// owns the surfaces ctrie.OwnerShard assigns to its index and serves
// the tag/commit RPC pair the router drives cycles with. All engine
// execution is serialized by the shard mutex — the engine's stream
// state is single-writer by design.
type Shard struct {
	mu sync.Mutex
	g  *core.Globalizer
	// seq is the last committed cycle; commits must arrive in order.
	seq uint64
	// lastResp answers idempotent retries of the last committed cycle
	// (a commit can apply even when the router times out waiting).
	lastResp *CommitResponse

	index, count int
	settings     map[string]string

	// admit bounds concurrently admitted mutating RPCs.
	admitMu sync.Mutex
	admit   chan struct{}

	o atomic.Pointer[shardObs]

	// Durability (nil / zero unless StartDurable was called): the WAL +
	// snapshot manager and the shard's own Merkle chain over its owned
	// annotations (guarded by mu).
	dl         *durable.Log
	prov       *durable.Provenance
	replaying  atomic.Bool
	broken     atomic.Bool
	replayDone chan struct{}
	recoverErr error
}

// shardObs is the shard-side metric set.
type shardObs struct {
	reg *obs.Registry

	requests      *obs.Counter   // ner_fleet_shard_requests_total
	rejected      *obs.Counter   // ner_fleet_shard_rejected_total
	tagSeconds    *obs.Histogram // ner_fleet_shard_tag_seconds
	commitSeconds *obs.Histogram // ner_fleet_shard_commit_seconds
}

func newShardObs(reg *obs.Registry) *shardObs {
	if reg == nil {
		return nil
	}
	return &shardObs{
		reg: reg,
		requests: reg.Counter("ner_fleet_shard_requests_total",
			"Fleet RPCs served by this shard across all endpoints."),
		rejected: reg.Counter("ner_fleet_shard_rejected_total",
			"Fleet RPCs rejected with 503 because shard admission was saturated."),
		tagSeconds: reg.Histogram("ner_fleet_shard_tag_seconds",
			"Wall-clock of tag RPCs (Local NER over one batch slice).", nil),
		commitSeconds: reg.Histogram("ner_fleet_shard_commit_seconds",
			"Wall-clock of commit RPCs (stream replay + owned global phase).", nil),
	}
}

// NewShard wraps an engine as shard index of count, restricting its
// global phase to owned surfaces (which resets stream state). settings
// is the resolved serving configuration the shard reports through
// /statusz, so a fleet operator can verify homogeneity; nil is fine.
func NewShard(g *core.Globalizer, index, count int, settings map[string]string) (*Shard, error) {
	if err := g.SetShardOwnership(index, count); err != nil {
		return nil, err
	}
	if settings == nil {
		settings = map[string]string{}
	}
	return &Shard{
		g:        g,
		index:    index,
		count:    count,
		settings: settings,
		admit:    make(chan struct{}, defaultShardAdmission),
	}, nil
}

// SetObserver attaches a metrics registry to the shard and its engine.
func (s *Shard) SetObserver(reg *obs.Registry) {
	s.o.Store(newShardObs(reg))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.SetObserver(reg)
}

// SetAdmission re-bounds concurrently admitted mutating RPCs. Zero
// rejects everything — the lever the partial-degradation tests pull to
// saturate one shard deterministically.
func (s *Shard) SetAdmission(n int) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.admit = make(chan struct{}, n)
}

// Engine exposes the wrapped engine for in-process harness wiring
// (workers, precision, caching). Serving traffic must be stopped while
// reconfiguring.
func (s *Shard) Engine() *core.Globalizer { return s.g }

// Ownership returns the shard's (index, count).
func (s *Shard) Ownership() (int, int) { return s.index, s.count }

// tryAdmit reserves an admission slot, answering 503 when saturated.
func (s *Shard) tryAdmit(w http.ResponseWriter) (release func(), ok bool) {
	s.admitMu.Lock()
	admit := s.admit
	s.admitMu.Unlock()
	select {
	case admit <- struct{}{}:
		return func() { <-admit }, true
	default:
		if so := s.o.Load(); so != nil {
			so.rejected.Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(shardRetryAfterSeconds))
		http.Error(w, "shard saturated", http.StatusServiceUnavailable)
		return nil, false
	}
}

// Handler returns the shard's routed HTTP handler.
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/tag", s.counted(s.handleTag))
	mux.HandleFunc("/shard/commit", s.counted(s.handleCommit))
	mux.HandleFunc("/shard/reset", s.counted(s.handleReset))
	mux.HandleFunc("/shard/candidates", s.counted(s.handleCandidates))
	mux.HandleFunc("/shard/entities", s.counted(s.handleEntities))
	mux.HandleFunc("/shard/proof", s.counted(s.handleProof))
	mux.HandleFunc("/statusz", s.counted(s.handleStatusz))
	mux.HandleFunc("/metrics", s.counted(s.handleMetrics))
	mux.HandleFunc("/healthz", s.counted(s.handleHealthz))
	return mux
}

func (s *Shard) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if so := s.o.Load(); so != nil {
			so.requests.Inc()
		}
		h(w, r)
	}
}

// handleTag runs Local NER over a batch slice. Tagging is pure — it
// reads the trained model, never the stream — so any shard can tag any
// slice and the router is free to fail a slice over to a healthy peer.
func (s *Shard) handleTag(w http.ResponseWriter, r *http.Request) {
	// The busy clock starts before the body decode: deserialization is
	// shard-side work in a real fleet, and the router subtracts
	// BusySeconds from its own wall-clock when accounting the cycle
	// critical path.
	t0 := time.Now()
	if s.unready(w) {
		return
	}
	var req TagRequest
	if !readGobRequest(w, r, &req) {
		return
	}
	release, ok := s.tryAdmit(w)
	if !ok {
		return
	}
	defer release()
	s.mu.Lock()
	results := s.g.TagBatch(ToSentences(req.Sentences))
	s.mu.Unlock()
	busy := time.Since(t0).Seconds()
	if so := s.o.Load(); so != nil {
		so.tagSeconds.Observe(busy)
	}
	writeGob(w, &TagResponse{Seq: req.Seq, Results: ToWireTags(results), BusySeconds: busy})
}

// handleCommit applies one cycle to the replicated stream. The Seq
// gate keeps replicas exact under router retries: in-order commits
// apply, a replay of the last applied commit answers from cache
// (idempotency — the router may time out after the shard already
// applied), and anything else is a 409 the router treats as
// desynchronization.
func (s *Shard) handleCommit(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.unready(w) {
		return
	}
	var req CommitRequest
	if !readGobRequest(w, r, &req) {
		return
	}
	release, ok := s.tryAdmit(w)
	if !ok {
		return
	}
	defer release()
	s.mu.Lock()
	if req.Seq == s.seq && s.lastResp != nil {
		resp := s.lastResp
		s.mu.Unlock()
		writeGob(w, resp)
		return
	}
	if req.Seq != s.seq+1 {
		have := s.seq
		s.mu.Unlock()
		http.Error(w, "commit out of order: have "+strconv.FormatUint(have, 10)+
			", got "+strconv.FormatUint(req.Seq, 10), http.StatusConflict)
		return
	}
	batch := ToSentences(req.Sentences)
	s.g.ProcessTagged(batch, ToResults(req.Tagged), req.Mode)
	resp := &CommitResponse{
		Seq:        req.Seq,
		Entities:   make([]SentenceEntities, len(batch)),
		StreamSize: s.g.TweetBase().Len(),
		Candidates: s.g.CandidateBase().Len(),
	}
	for i, sent := range batch {
		resp.Entities[i] = s.ownedEntities(sent.Key())
	}
	// Ack-after-durable: the WAL append is issued under the lock and its
	// durability wait happens after release — the response still never
	// outruns the shard's disk, but under fsync=group the next cycle's
	// tag RPC can run on the engine while this cycle's flush completes.
	var snap *durable.Snapshot
	var wait func() error
	if s.dl != nil {
		var err error
		snap, wait, err = s.durableCommit(&req, resp)
		if err != nil {
			s.seq = req.Seq
			s.lastResp = resp
			s.mu.Unlock()
			http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	resp.BusySeconds = time.Since(t0).Seconds()
	s.seq = req.Seq
	s.lastResp = resp
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			s.broken.Store(true)
			http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if so := s.o.Load(); so != nil {
		so.commitSeconds.Observe(resp.BusySeconds)
	}
	writeGob(w, resp)
	if snap != nil {
		s.dl.SubmitSnapshot(snap, snap.Seq)
	}
}

func (s *Shard) handleReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// A reset would fork the replica away from its WAL; durable shards
	// reset by wiping the data dir and restarting.
	if s.dl != nil {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dir and restart", http.StatusConflict)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.Reset()
	s.seq = 0
	s.lastResp = nil
	w.WriteHeader(http.StatusOK)
}

// WireCandidate is one candidate cluster in a shard's fan-in reply,
// in the engine's sorted-surface order.
type WireCandidate struct {
	Surface    string
	ClusterID  int
	Type       types.EntityType
	Mentions   int
	Confidence float64
}

func (s *Shard) handleCandidates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	out := []WireCandidate{}
	for _, c := range s.g.CandidateBase().All() {
		out = append(out, WireCandidate{
			Surface:    c.Surface,
			ClusterID:  c.ClusterID,
			Type:       c.Type,
			Mentions:   c.MentionCount(),
			Confidence: c.Confidence,
		})
	}
	s.mu.Unlock()
	writeGob(w, out)
}

// ownedEntities renders one sentence's verified owned mentions for the
// wire: the typed entries of the record's FinalMentions, carrying the
// canonical (trie) surface. That surface is what rebuildFinal sorts
// sentence mentions by, so shipping it — rather than the sentence
// text — lets the router's k-way group merge reproduce the
// single-process ordering exactly.
func (s *Shard) ownedEntities(key types.SentenceKey) SentenceEntities {
	se := SentenceEntities{TweetID: key.TweetID, SentID: key.SentID, Entities: []WireEntity{}}
	rec := s.g.TweetBase().Get(key)
	if rec == nil {
		return se
	}
	for _, m := range rec.FinalMentions {
		if m.Type == types.None {
			continue
		}
		se.Entities = append(se.Entities, WireEntity{
			Start:   m.Span.Start,
			End:     m.Span.End,
			Type:    m.Type,
			Surface: m.Surface,
		})
	}
	return se
}

// handleEntities returns the shard's owned annotations for the whole
// stream in insertion order — the fan-in half of the router's
// /entities endpoint.
func (s *Shard) handleEntities(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	tb := s.g.TweetBase()
	out := make([]SentenceEntities, 0, tb.Len())
	for _, key := range tb.Keys() {
		out = append(out, s.ownedEntities(key))
	}
	s.mu.Unlock()
	writeGob(w, out)
}

// Status snapshots the shard's resolved configuration and replica
// state.
func (s *Shard) Status() ShardStatus {
	s.mu.Lock()
	st := ShardStatus{
		Index:      s.index,
		Count:      s.count,
		Seq:        s.seq,
		StreamSize: s.g.TweetBase().Len(),
		Candidates: s.g.CandidateBase().Len(),
		Precision:  s.g.Precision().String(),
		SIMD:       nn.ActiveSIMD().String(),
		I8Kernel:   nn.I8KernelMode(),
		Settings:   s.settings,

		ClusterReplayedShare: s.g.ClusterReplayedShare(),
	}
	s.mu.Unlock()
	if s.dl != nil {
		d := s.dl.Status()
		st.Durability = &d
	}
	return st
}

func (s *Shard) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Status())
}

func (s *Shard) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var reg *obs.Registry
	if so := s.o.Load(); so != nil {
		reg = so.reg
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}
