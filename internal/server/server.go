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
// Global NER refresh instead of N serialized ones.
//
// Endpoints:
//
//	POST /annotate   {"tweets": ["raw text", ...]}
//	                 → per-tweet entities after the cycle
//	GET  /entities   → the whole stream's current annotations (503 while replaying)
//	GET  /candidates → current candidate clusters (503 while replaying)
//	POST /reset      → clear stream state (between two cycles)
//	GET  /proof      → Merkle inclusion proof for a tweet (with a data dir)
//	GET  /healthz    → readiness (503 while replaying or after a durability failure)
//	GET  /metrics    → Prometheus text exposition (observability registry)
//	GET  /statusz    → JSON snapshot of the same registry + cycle traces
//	                 (answers during replay, with the stream size reached)
//
// Admission is bounded: when the job queue is full, /annotate answers
// 503 with a Retry-After header instead of blocking the client, and
// the rejection is counted on the observability registry.
//
// Admission, the scheduler, the readiness gate and the HTTP plumbing
// are the Front (front.go), which the fleet router shares; the engine,
// its commit tail, its replay and its reads are the Replica
// (replica.go), which the fleet shard shares. This file composes the
// two: tweet ID assignment, the two stages of a cycle and the JSON
// endpoints.
package server

import (
	"net/http"
	"runtime"
	"sync/atomic"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
)

// Server wraps a trained pipeline with HTTP handlers: a Front in front
// of one Replica. All pipeline execution happens on the front's
// scheduler goroutine, and a durable cycle's acknowledgement on the
// front's tail; the replica's engine lock guards the read-side
// endpoints (/candidates, /entities) against a cycle in flight. The
// pipeline is configured (workers, inference batching, precision)
// before New.
type Server struct {
	front *Front
	rep   *Replica

	// nextID is the tweet ID cursor. Scheduler-owned: runCycle and a
	// reset (which runs on the scheduler) are its only users once
	// recovery, which restores it behind the closed gate, has finished.
	nextID int

	// cycles counts executed micro-batch cycles (observability: with N
	// concurrent clients it stays well below the request count).
	cycles atomic.Int64

	// o carries the cycle metrics; nil when no registry is attached, in
	// which case every hook is a single branch.
	o atomic.Pointer[serverObs]
}

// ackQueueDepth is the front's tail depth under the server: how many
// cycles may run ahead of their covering fsync. Every queued cycle rides
// the next flush; the depth has to absorb the longest ack outage — a
// background snapshot flush can hold the device for tens of cycles —
// without the scheduler blocking on the tail.
const ackQueueDepth = 32

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
	s.rep.SetObserver(reg)
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
	s := &Server{}
	s.front = NewFront(s.runCycle, ackQueueDepth)
	s.rep = NewReplica(g, &s.front.Gate, -1)
	return s
}

// Close stops the scheduler. In-flight and queued requests receive 503;
// Close returns once the scheduler goroutine has exited, every cycle it
// ran has been acknowledged and the log is sealed. Idempotent: a
// repeated (or concurrent) call waits for the first and does nothing.
func (s *Server) Close() {
	s.front.Close(func() {
		s.front.Gate.WaitWarm()
		s.rep.Close()
	})
}

// Precision reports the pipeline's active inference precision tier.
func (s *Server) Precision() (p nn.Precision) {
	s.rep.View(func(g *core.Globalizer) { p = g.Precision() })
	return p
}

// StartDurable opens (or creates) the data directory and begins
// recovery: every cycle is from then on appended to the WAL before its
// jobs are answered (a 200 means the cycle survives kill -9 unless
// the policy is -fsync none). Call once, after New and SetObserver but before
// serving traffic. Recovery is asynchronous so /healthz can report the
// replay in progress and /statusz how far it has come; mutating
// endpoints answer 503 until it finishes, WaitWarm blocks on it.
func (s *Server) StartDurable(dir string, opts durable.Options) error {
	rec, err := s.rep.Open(dir, opts, s.Observer())
	if err != nil {
		return err
	}
	s.front.Gate.Recover(func() error {
		s.nextID = rec.NextID()
		_, err := s.rep.Replay(rec)
		s.cycles.Store(int64(s.rep.Seq()))
		return err
	})
	return nil
}

// WaitWarm blocks until startup recovery completes and returns its
// error, if any. Without StartDurable it returns immediately.
func (s *Server) WaitWarm() error { return s.front.Gate.WaitWarm() }

// runCycle is stage one of a micro-batched execution cycle: tweet IDs
// are assigned in queue order and the coalesced batch runs through the
// replica once. Without a data dir each request is answered here from
// its own slice of the result. The cycle counts, and its IDs are spent,
// only if the replica took its seq: a cycle refused at a closed gate
// leaves no trace.
//
// Ack-after-durable: the replica has issued the WAL append by the time
// Apply returns, and the returned finish (the front's tail runs it while
// the scheduler computes the next cycle) releases the jobs only after
// the covering fsync, then submits any scheduled snapshot — after the
// fsync, so a snapshot never outruns the WAL it compacts. A failed
// append or wait has tripped the gate — in-memory state has advanced
// past what disk holds, so continuing would let a later restart silently
// drop acknowledged cycles — and the jobs get the error instead of an
// ack. The finish touches only cycle-local data, nothing a later cycle
// can mutate.
func (s *Server) runCycle(jobs []*Job) (finish func()) {
	batch, perJob, nextID := Batch(jobs, s.nextID)
	out, err := s.rep.Apply(batch, nil)
	if out.Seq != 0 {
		s.nextID = nextID
		s.cycles.Add(1)
		if so := s.o.Load(); so != nil {
			so.serverCycles.Inc()
			so.sentsPerCycle.Observe(float64(len(batch)))
		}
	}
	if err != nil {
		durabilityFailed(jobs, err)
		return nil
	}
	answer := func() {
		Answer(jobs, perJob, batch, out.Annotations, out.StreamSize, out.Candidates)
	}
	if out.Wait == nil {
		answer()
		return nil
	}
	if out.Snapshot != nil {
		out.Snapshot.NextID = nextID
	}
	return func() {
		if err := out.Wait(); err != nil {
			durabilityFailed(jobs, err)
			return
		}
		answer()
		if out.Snapshot != nil {
			s.rep.SubmitSnapshot(out.Snapshot)
		}
	}
}

// durabilityFailed answers the cycle's jobs 500 instead of acking state
// that disk does not hold.
func durabilityFailed(jobs []*Job, err error) {
	fail(jobs, http.StatusInternalServerError, 0, "durability failure: "+err.Error())
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := s.front.Mux()
	mux.HandleFunc("GET /candidates", s.front.Counted(s.handleCandidates))
	mux.HandleFunc("GET /entities", s.front.Counted(s.handleEntities))
	mux.HandleFunc("POST /reset", s.front.Counted(s.handleReset))
	mux.HandleFunc("GET /statusz", s.front.Counted(s.handleStatusz))
	mux.HandleFunc("GET /proof", s.front.Counted(s.rep.ServeProof))
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
	// differ when an operator pinned a lower tier via NER_SIMD.
	// SIMDSupported lists every tier this arch can run.
	GOARCH        string   `json:"goarch"`
	SIMD          string   `json:"simd"`
	SIMDBest      string   `json:"simd_best"`
	SIMDSupported []string `json:"simd_supported"`
	// ClusterReplayedShare is ner_cluster_merges_replayed_total over
	// ner_cluster_merges_total: the fraction of agglomerative merge
	// steps taken from a surface's recorded merge sequence instead of
	// selected again (0 without a registry attached).
	ClusterReplayedShare float64 `json:"cluster_merges_replayed_share"`
	// Durability summarizes the commit path (fsync policy, WAL backlog,
	// snapshot-writer depth); nil when the server runs without -data-dir.
	Durability *durable.Status  `json:"durability,omitempty"`
	Metrics    obs.Snapshot     `json:"metrics"`
	Traces     []obs.CycleTrace `json:"traces"`
}

// handleStatusz answers during replay too, with the stream size
// reached so far: replay takes the engine lock per cycle.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	resp := StatuszResponse{
		Cycles:     s.Cycles(),
		GOARCH:     runtime.GOARCH,
		SIMD:       nn.ActiveSIMD().String(),
		SIMDBest:   nn.BestSIMD().String(),
		Durability: s.rep.Durability(),
	}
	s.rep.View(func(g *core.Globalizer) {
		resp.StreamSize = g.TweetBase().Len()
		resp.Candidates = g.CandidateBase().Len()
		resp.Precision = g.Precision().String()
		resp.Metrics = s.Observer().Snapshot()
		resp.Traces = g.Traces()
		resp.ClusterReplayedShare = g.ClusterReplayedShare()
	})
	for _, l := range nn.SupportedSIMDLevels() {
		resp.SIMDSupported = append(resp.SIMDSupported, l.String())
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

// EntitiesJSON renders a whole stream's annotations as GET /entities
// serves them — never nil.
func EntitiesJSON(anns []durable.SentenceAnnotation) []SentenceEntitiesJSON {
	out := make([]SentenceEntitiesJSON, len(anns))
	for i, a := range anns {
		out[i] = SentenceEntitiesJSON{TweetID: a.TweetID, SentID: a.SentID, Entities: RenderEntities(a.Entities)}
	}
	return out
}

// handleEntities returns the whole accumulated stream's current
// annotations in insertion order. Unlike /annotate — which answers for
// the submitted tweets only — this exposes how global context has
// revised earlier sentences, and it is the endpoint fleet identity
// checks compare across serving topologies. While recovery replays it
// answers 503: the stream is only partly rebuilt.
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	if s.front.Gate.RejectReplaying(w) {
		return
	}
	WriteJSON(w, EntitiesJSON(s.rep.Entities()))
}

// CandidateJSON summarizes one candidate cluster.
type CandidateJSON struct {
	Surface    string  `json:"surface"`
	ClusterID  int     `json:"cluster_id"`
	Type       string  `json:"type"`
	Mentions   int     `json:"mentions"`
	Confidence float64 `json:"confidence"`
}

// CandidatesJSON renders candidate summaries as GET /candidates serves
// them — never nil.
func CandidatesJSON(cands []Candidate) []CandidateJSON {
	out := make([]CandidateJSON, len(cands))
	for i, c := range cands {
		out[i] = CandidateJSON{
			Surface:    c.Surface,
			ClusterID:  c.ClusterID,
			Type:       c.Type.String(),
			Mentions:   c.Mentions,
			Confidence: c.Confidence,
		}
	}
	return out
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	if s.front.Gate.RejectReplaying(w) {
		return
	}
	WriteJSON(w, CandidatesJSON(s.rep.Candidates()))
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	// A reset would fork the in-memory stream away from the WAL: any
	// later replay would resurrect the pre-reset stream. Durable servers
	// reset by wiping the data dir and restarting instead.
	if s.rep.Durable() {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dir and restart", http.StatusConflict)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// Between two cycles, on the scheduler: no cycle straddles the reset.
	if !s.front.Exclusive(func() {
		s.rep.Reset()
		s.nextID = 0
	}) {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
}
