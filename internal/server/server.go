// Package server exposes a trained NER Globalizer pipeline as an HTTP
// service implementing the paper's continuous execution setup: clients
// POST raw tweets, the service tokenizes them, runs an execution cycle
// (Local NER on the new batch, Global NER over the accumulated
// stream), and returns the current annotations. The stream state grows
// across requests until /reset.
//
// Concurrent /annotate requests are micro-batched: a single scheduler
// goroutine coalesces everything queued while a cycle is in flight
// into the next execution cycle, so N concurrent clients cost one
// Global NER refresh instead of N serialized ones. An optional batch
// window makes the scheduler wait a little after the first arrival to
// coalesce more aggressively under bursty load.
//
// Endpoints:
//
//	POST /annotate   {"tweets": ["raw text", ...]}
//	                 → per-tweet entities after the cycle
//	GET  /entities   → the whole stream's current annotations
//	GET  /candidates → current candidate clusters
//	POST /reset      → clear stream state (between two cycles)
//	GET  /proof      → Merkle inclusion proof for a tweet (with a data dir)
//	GET  /healthz    → readiness (503 while replaying or after a durability failure)
//	GET  /metrics    → Prometheus text exposition (observability registry)
//	GET  /statusz    → JSON snapshot of the same registry + cycle traces
//
// Admission is bounded: when the job queue is full, /annotate answers
// 503 with a Retry-After header instead of blocking the client, and
// the rejection is counted on the observability registry.
//
// Admission, the scheduler, the readiness gate and the HTTP plumbing
// are the Front (front.go), which the fleet router shares; this file is
// what the single server adds: its execution cycle and read endpoints.
package server

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/types"
)

// Server wraps a trained pipeline with HTTP handlers. All pipeline
// execution happens on the front's scheduler goroutine; the mutex
// guards the read-side endpoints (/candidates, /entities) against a
// cycle in flight.
type Server struct {
	front *Front

	mu     sync.Mutex
	g      *core.Globalizer
	nextID int

	// cycles counts executed micro-batch cycles (observability: with N
	// concurrent clients it stays well below the request count).
	cycles atomic.Int64

	// o carries the cycle metrics; nil when no registry is attached, in
	// which case every hook is a single branch.
	o atomic.Pointer[serverObs]

	// Durability (nil unless StartDurable was called): the WAL + snapshot
	// manager and the Merkle provenance chain (guarded by mu).
	dl   *durable.Log
	prov *durable.Provenance

	// acks decouples acking from the scheduler when durability is on:
	// runCycle hands each cycle's pre-rendered responses plus its
	// durability wait to the acker goroutine, which releases clients in
	// cycle order once the covering fsync completes. Cycle N+1's compute
	// overlaps cycle N's flush without ever acking early.
	acks      chan *cycleAck
	ackerDone chan struct{}
}

// ackQueueDepth bounds how many cycles may run ahead of their
// covering fsync. Under the group fsync policy every queued cycle
// rides the next flush; the depth has to absorb the longest ack
// outage — a background snapshot flush can hold the device for tens
// of cycles — without the scheduler blocking on the acker.
const ackQueueDepth = 32

// cycleAck is one cycle's deferred acknowledgement: the jobs to
// answer, their pre-rendered responses, the durability wait that must
// succeed first, and an optional snapshot to submit afterwards.
type cycleAck struct {
	jobs  []*Job
	resps []AnnotateResponse
	wait  func() error
	snap  *durable.Snapshot
}

// serverObs is the cycle-level metric set, registered on the same
// registry as the front's and the pipeline's stage metrics so one
// /metrics scrape covers the whole service.
type serverObs struct {
	serverCycles  *obs.Counter   // ner_server_cycles_total
	sentsPerCycle *obs.Histogram // ner_batch_sentences_per_cycle
}

// SetObserver attaches a metrics registry to the server and its
// wrapped pipeline: HTTP latency, admission rejections, and micro-batch
// shape land next to the pipeline's stage metrics, so /metrics exposes
// all of them. A nil registry detaches everything.
func (s *Server) SetObserver(reg *obs.Registry) {
	s.front.SetObserver(reg)
	var so *serverObs
	if reg != nil {
		so = &serverObs{
			serverCycles: reg.Counter("ner_server_cycles_total",
				"Micro-batched execution cycles run by the scheduler."),
			sentsPerCycle: reg.Histogram("ner_batch_sentences_per_cycle",
				"Sentences processed per execution cycle.", obs.SizeBuckets),
		}
	}
	s.o.Store(so)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.SetObserver(reg)
}

// Observer returns the attached registry (nil when detached).
func (s *Server) Observer() *obs.Registry { return s.front.Registry() }

// Front returns the serving front: the scheduler hook and readiness
// gate the fleet router shares.
func (s *Server) Front() *Front { return s.front }

// Cycles reports how many micro-batched execution cycles have run.
func (s *Server) Cycles() int { return int(s.cycles.Load()) }

// New wraps the (already trained) pipeline and starts the scheduler.
// The server owns the pipeline's stream: any previous stream state is
// cleared so tweet IDs assigned by the service cannot collide with
// leftover records. Call Close to stop the scheduler goroutine.
func New(g *core.Globalizer) *Server {
	g.Reset()
	s := &Server{g: g}
	s.front = NewFront(s.runCycle)
	return s
}

// Close stops the scheduler. In-flight and queued requests receive 503;
// Close returns once the scheduler goroutine has exited. Idempotent: a
// repeated (or concurrent) call waits for the first and does nothing.
func (s *Server) Close() {
	s.front.Close(func() {
		s.front.Gate.WaitWarm()
		if s.acks != nil {
			close(s.acks)
			<-s.ackerDone
		}
		if s.dl != nil {
			s.dl.Close()
		}
	})
}

// SetWorkers caps the per-cycle parallelism of the wrapped pipeline:
// cycles run one at a time on the scheduler, and each fans out over at
// most workers goroutines (0 = GOMAXPROCS, 1 = serial). Annotations
// are identical at every setting.
func (s *Server) SetWorkers(workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.SetWorkers(workers)
}

// SetInferBatch re-caps the tokens packed per batched encoder
// inference call inside each cycle (0 disables packing and runs the
// per-sentence path). Annotations are byte-identical at every setting.
// Checkpoints saved before the knob existed decode with packing off,
// so servers loading old models call this to re-enable it.
func (s *Server) SetInferBatch(tokens int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.SetInferBatch(tokens)
}

// SetPrecision switches the wrapped pipeline's inference kernels onto
// the given tier (f64 exact, f32, i8) for all subsequent cycles.
// Returns an error when the pipeline's encoder has no tier support.
func (s *Server) SetPrecision(p nn.Precision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.SetPrecision(p)
}

// Precision reports the pipeline's active inference precision tier.
func (s *Server) Precision() nn.Precision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Precision()
}

// SetBatchWindow sets the micro-batch coalescing window; see
// Front.SetBatchWindow.
func (s *Server) SetBatchWindow(d time.Duration) { s.front.SetBatchWindow(d) }

// runCycle executes one micro-batched execution cycle: tweet IDs are
// assigned in queue order (each request's tweets stay contiguous), the
// coalesced batch runs through ProcessBatch once, and each request is
// answered from its own slice of the result.
func (s *Server) runCycle(jobs []*Job) {
	s.cycles.Add(1)
	s.mu.Lock()
	var batch []*types.Sentence
	perJob := make([][]*types.Sentence, len(jobs))
	for ji, job := range jobs {
		for _, sentTokens := range job.Tweets {
			for si, toks := range sentTokens {
				sent := &types.Sentence{TweetID: s.nextID, SentID: si, Tokens: toks}
				batch = append(batch, sent)
				perJob[ji] = append(perJob[ji], sent)
			}
			s.nextID++
		}
	}
	final := s.g.ProcessBatchEntities(batch, core.ModeFull)
	streamSize := s.g.TweetBase().Len()
	candidates := s.g.CandidateBase().Len()
	var rec *durable.CycleRecord
	var snap *durable.Snapshot
	if s.dl != nil {
		seq := uint64(s.cycles.Load())
		rec = &durable.CycleRecord{
			Seq:         seq,
			Mode:        int(core.ModeFull),
			Sentences:   durable.ToCycleSentences(batch),
			Annotations: durable.RenderAnnotations(batch, final),
		}
		snap = s.durableCommit(seq, rec)
	}
	s.mu.Unlock()
	if so := s.o.Load(); so != nil {
		so.serverCycles.Inc()
		so.sentsPerCycle.Observe(float64(len(batch)))
	}
	// Responses are rendered on the scheduler before the next cycle can
	// mutate anything, so the acker only ever touches cycle-local data.
	resps := make([]AnnotateResponse, len(jobs))
	for ji := range jobs {
		resp := AnnotateResponse{StreamSize: streamSize, Candidates: candidates}
		for _, sent := range perJob[ji] {
			resp.Sentences = append(resp.Sentences, SentenceJSON{
				TweetID:  sent.TweetID,
				SentID:   sent.SentID,
				Tokens:   sent.Tokens,
				Entities: RenderEntities(sent, final[sent.Key()], entitySpan),
			})
		}
		resps[ji] = resp
	}

	// Ack-after-durable: the WAL append is issued before any job is
	// answered, and the acker releases the jobs only after the append's
	// durability wait succeeds — immediate under "always", after the
	// covering group fsync under "group". A failed append trips the gate
	// — in-memory state has already advanced past what disk holds, so
	// continuing would let a later restart silently drop acknowledged
	// cycles.
	if rec != nil {
		wait, err := s.dl.AppendAsync(rec)
		if err != nil {
			s.durabilityFailed(jobs, err)
			return
		}
		s.acks <- &cycleAck{jobs: jobs, resps: resps, wait: wait, snap: snap}
		return
	}

	for ji, job := range jobs {
		job.Reply(resps[ji])
	}
}

func entitySpan(e types.Entity) (types.Span, types.EntityType) { return e.Span, e.Type }

func mentionSpan(m types.Mention) (types.Span, types.EntityType) { return m.Span, m.Type }

// durabilityFailed trips the gate and answers the cycle's jobs 500
// instead of acking state that disk does not hold.
func (s *Server) durabilityFailed(jobs []*Job, err error) {
	s.front.Gate.Trip()
	fail(jobs, http.StatusInternalServerError, 0, "durability failure: "+err.Error())
}

// acker releases each durable cycle's clients once its durability wait
// succeeds, in cycle order, then submits any scheduled snapshot (after
// the covering fsync, so a snapshot never outruns the WAL it compacts).
// A wait failure is sticky: the gate trips and the cycle's jobs get the
// error instead of an ack.
func (s *Server) acker() {
	defer close(s.ackerDone)
	for a := range s.acks {
		if err := a.wait(); err != nil {
			s.durabilityFailed(a.jobs, err)
			continue
		}
		for i, job := range a.jobs {
			job.Reply(a.resps[i])
		}
		if a.snap != nil {
			s.dl.SubmitSnapshot(a.snap, a.snap.Seq)
		}
	}
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := s.front.Mux()
	mux.HandleFunc("GET /candidates", s.front.Counted(s.handleCandidates))
	mux.HandleFunc("GET /entities", s.front.Counted(s.handleEntities))
	mux.HandleFunc("POST /reset", s.front.Counted(s.handleReset))
	mux.HandleFunc("GET /statusz", s.front.Counted(s.handleStatusz))
	mux.HandleFunc("GET /proof", s.front.Counted(s.handleProof))
	return mux
}

// StatuszResponse is the GET /statusz payload: a JSON snapshot of
// every registered metric, the most recent cycle traces, and the
// server's own stream state.
type StatuszResponse struct {
	Cycles     int    `json:"cycles"`
	StreamSize int    `json:"stream_size"`
	Candidates int    `json:"candidates"`
	Precision  string `json:"precision"`
	// GOARCH names the architecture so dashboards can tell an amd64
	// fleet member (sse2/avx2-fma tiers) from an arm64 one (neon).
	// SIMD is the dispatched kernel tier (generic, sse2, avx2-fma,
	// neon); SIMDBest is the highest tier this CPU supports — they
	// differ when an operator pinned a lower tier via NER_SIMD or
	// -simd. SIMDSupported lists every tier this arch can run.
	GOARCH        string   `json:"goarch"`
	SIMD          string   `json:"simd"`
	SIMDBest      string   `json:"simd_best"`
	SIMDSupported []string `json:"simd_supported"`
	// ClusterReplayedShare is ner_cluster_merges_replayed_total over
	// ner_cluster_merges_total: the fraction of agglomerative merge
	// steps taken from a surface's recorded merge sequence instead of
	// selected again (0 without -metrics).
	ClusterReplayedShare float64 `json:"cluster_merges_replayed_share"`
	// Durability summarizes the commit path (fsync policy, WAL backlog,
	// snapshot-writer depth); nil when the server runs without -data-dir.
	Durability *durable.Status  `json:"durability,omitempty"`
	Metrics    obs.Snapshot     `json:"metrics"`
	Traces     []obs.CycleTrace `json:"traces"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := StatuszResponse{
		Cycles:     int(s.cycles.Load()),
		StreamSize: s.g.TweetBase().Len(),
		Candidates: s.g.CandidateBase().Len(),
		Precision:  s.g.Precision().String(),
		GOARCH:     runtime.GOARCH,
		SIMD:       nn.ActiveSIMD().String(),
		SIMDBest:   nn.BestSIMD().String(),
		Metrics:    s.Observer().Snapshot(),
		Traces:     s.g.Traces(),

		ClusterReplayedShare: s.g.ClusterReplayedShare(),
	}
	for _, l := range nn.SupportedSIMDLevels() {
		resp.SIMDSupported = append(resp.SIMDSupported, l.String())
	}
	s.mu.Unlock()
	if s.dl != nil {
		st := s.dl.Status()
		resp.Durability = &st
	}
	if resp.Traces == nil {
		resp.Traces = []obs.CycleTrace{}
	}
	WriteJSON(w, resp)
}

// EntityJSON is one extracted entity in a response.
type EntityJSON struct {
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Type    string `json:"type"`
	Surface string `json:"surface"`
}

// SentenceJSON is one annotated tweet sentence.
type SentenceJSON struct {
	TweetID  int          `json:"tweet_id"`
	SentID   int          `json:"sent_id"`
	Tokens   []string     `json:"tokens"`
	Entities []EntityJSON `json:"entities"`
}

// SentenceEntitiesJSON is one stream sentence's current annotations in
// a GET /entities reply.
type SentenceEntitiesJSON struct {
	TweetID  int          `json:"tweet_id"`
	SentID   int          `json:"sent_id"`
	Entities []EntityJSON `json:"entities"`
}

// handleEntities returns the whole accumulated stream's current
// annotations in insertion order. Unlike /annotate — which answers for
// the submitted tweets only — this exposes how global context has
// revised earlier sentences, and it is the endpoint fleet identity
// checks compare across serving topologies.
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tb := s.g.TweetBase()
	out := make([]SentenceEntitiesJSON, 0, tb.Len())
	for _, key := range tb.Keys() {
		rec := tb.Get(key)
		out = append(out, SentenceEntitiesJSON{
			TweetID:  key.TweetID,
			SentID:   key.SentID,
			Entities: RenderEntities(rec.Sentence, rec.FinalMentions, mentionSpan),
		})
	}
	s.mu.Unlock()
	WriteJSON(w, out)
}

// CandidateJSON summarizes one candidate cluster.
type CandidateJSON struct {
	Surface    string  `json:"surface"`
	ClusterID  int     `json:"cluster_id"`
	Type       string  `json:"type"`
	Mentions   int     `json:"mentions"`
	Confidence float64 `json:"confidence"`
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []CandidateJSON{}
	for _, c := range s.g.CandidateBase().All() {
		out = append(out, CandidateJSON{
			Surface:    c.Surface,
			ClusterID:  c.ClusterID,
			Type:       c.Type.String(),
			Mentions:   c.MentionCount(),
			Confidence: c.Confidence,
		})
	}
	WriteJSON(w, out)
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	// A reset would fork the in-memory stream away from the WAL: any
	// later replay would resurrect the pre-reset stream. Durable servers
	// reset by wiping the data dir and restarting instead.
	if s.dl != nil {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dir and restart", http.StatusConflict)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// Between two cycles, on the scheduler: no cycle straddles the reset.
	// The mutex keeps the read endpoints out meanwhile.
	if !s.front.Exclusive(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.g.Reset()
		s.nextID = 0
	}) {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
}
