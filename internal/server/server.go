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
//	GET  /candidates → current candidate clusters
//	POST /reset      → clear stream state
//	GET  /healthz    → liveness
//	GET  /metrics    → Prometheus text exposition (observability registry)
//	GET  /statusz    → JSON snapshot of the same registry + cycle traces
//
// Admission is bounded: when the job queue is full, /annotate answers
// 503 with a Retry-After header instead of blocking the client, and
// the rejection is counted on the observability registry.
package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
)

// maxBodyBytes caps request bodies on every mutating endpoint, keeping
// a hostile client from streaming an unbounded payload into the JSON
// decoder.
const maxBodyBytes = 1 << 20

// defaultQueueDepth is the admission bound of the job queue: requests
// beyond it receive 503 rather than blocking.
const defaultQueueDepth = 128

// retryAfterSeconds is the Retry-After hint on saturation rejections:
// one coalescing cycle normally clears the whole queue, so a short
// back-off suffices.
const retryAfterSeconds = 1

// annotateJob is one enqueued /annotate request: its tweets, already
// tokenized and sentence-split (pure per-request work kept out of the
// serial section), and the channel its response comes back on.
type annotateJob struct {
	tweets [][][]string // per tweet, per sentence, tokens
	done   chan annotateResponse
}

// Server wraps a trained pipeline with HTTP handlers. All pipeline
// execution happens on the scheduler goroutine; the mutex only guards
// the read-side endpoints (/candidates) and /reset against a cycle in
// flight.
type Server struct {
	mu     sync.Mutex
	g      *core.Globalizer
	nextID int
	// sentences of the accumulated stream, for rendering responses.
	sentences map[types.SentenceKey]*types.Sentence

	jobs chan *annotateJob
	// window is the micro-batch coalescing window in nanoseconds
	// (guarded by mu; 0 = coalesce only what is already queued).
	window time.Duration

	quit      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	// cycles counts executed micro-batch cycles (observability: with N
	// concurrent clients it stays well below the request count).
	cycles atomic.Int64

	// o carries the HTTP/scheduler metrics; nil when no registry is
	// attached, in which case every hook is a single branch.
	o atomic.Pointer[serverObs]

	// Durability (nil / zero unless StartDurable was called): the WAL +
	// snapshot manager, the Merkle provenance chain (guarded by mu), and
	// the lifecycle flags — replaying while startup recovery runs,
	// broken sticky after a WAL append or recovery failure.
	dl         *durable.Log
	prov       *durable.Provenance
	replaying  atomic.Bool
	broken     atomic.Bool
	replayDone chan struct{}
	recoverErr error

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
	jobs  []*annotateJob
	resps []annotateResponse
	wait  func() error
	snap  *durable.Snapshot
}

// serverObs is the HTTP- and scheduler-level metric set, registered on
// the same registry as the pipeline's stage metrics so one /metrics
// scrape covers the whole service.
type serverObs struct {
	reg *obs.Registry

	requests        *obs.Counter   // ner_http_requests_total
	rejected        *obs.Counter   // ner_http_rejected_total
	serverCycles    *obs.Counter   // ner_server_cycles_total
	annotateSeconds *obs.Histogram // ner_http_annotate_seconds
	jobsPerCycle    *obs.Histogram // ner_batch_jobs_per_cycle
	sentsPerCycle   *obs.Histogram // ner_batch_sentences_per_cycle
	queueDepth      *obs.Gauge     // ner_jobs_queue_depth
}

func newServerObs(reg *obs.Registry) *serverObs {
	if reg == nil {
		return nil
	}
	return &serverObs{
		reg: reg,
		requests: reg.Counter("ner_http_requests_total",
			"HTTP requests served across all endpoints."),
		rejected: reg.Counter("ner_http_rejected_total",
			"Annotate requests rejected with 503 because the job queue was saturated."),
		serverCycles: reg.Counter("ner_server_cycles_total",
			"Micro-batched execution cycles run by the scheduler."),
		annotateSeconds: reg.Histogram("ner_http_annotate_seconds",
			"End-to-end /annotate latency (queueing + coalesced cycle).", nil),
		jobsPerCycle: reg.Histogram("ner_batch_jobs_per_cycle",
			"Concurrent requests coalesced into one execution cycle.", obs.SizeBuckets),
		sentsPerCycle: reg.Histogram("ner_batch_sentences_per_cycle",
			"Sentences processed per execution cycle.", obs.SizeBuckets),
		queueDepth: reg.Gauge("ner_jobs_queue_depth",
			"Annotate jobs waiting in the scheduler queue."),
	}
}

// SetObserver attaches a metrics registry to the server and its
// wrapped pipeline: HTTP latency, admission rejections, and micro-batch
// shape land next to the pipeline's stage metrics, so /metrics exposes
// all of them. A nil registry detaches everything.
func (s *Server) SetObserver(reg *obs.Registry) {
	s.o.Store(newServerObs(reg))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.SetObserver(reg)
}

// Observer returns the attached registry (nil when detached).
func (s *Server) Observer() *obs.Registry {
	if so := s.o.Load(); so != nil {
		return so.reg
	}
	return nil
}

// Cycles reports how many micro-batched execution cycles have run.
func (s *Server) Cycles() int { return int(s.cycles.Load()) }

// New wraps the (already trained) pipeline and starts the scheduler.
// The server owns the pipeline's stream: any previous stream state is
// cleared so tweet IDs assigned by the service cannot collide with
// leftover records. Call Close to stop the scheduler goroutine.
func New(g *core.Globalizer) *Server {
	g.Reset()
	s := &Server{
		g:         g,
		sentences: make(map[types.SentenceKey]*types.Sentence),
		jobs:      make(chan *annotateJob, defaultQueueDepth),
		quit:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	go s.loop()
	return s
}

// Close stops the scheduler. In-flight and queued requests receive 503;
// Close returns once the scheduler goroutine has exited. Idempotent: a
// repeated (or concurrent) call waits for the first and does nothing.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.loopDone
		if s.replayDone != nil {
			<-s.replayDone
		}
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

// SetBatchWindow sets how long the scheduler waits after a request
// arrives to coalesce more requests into the same execution cycle.
// Zero (the default) still coalesces everything that queued while the
// previous cycle was running — the window only adds deliberate latency
// to trade for bigger micro-batches under bursty concurrent load.
func (s *Server) SetBatchWindow(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.window = d
}

func (s *Server) batchWindow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window
}

// loop is the scheduler: it blocks for the first queued request,
// drains everything else that arrived (plus anything arriving within
// the batch window), and runs them as one execution cycle.
func (s *Server) loop() {
	defer close(s.loopDone)
	for {
		select {
		case <-s.quit:
			return
		case first := <-s.jobs:
			batch := append([]*annotateJob{first}, s.drain()...)
			s.runCycle(batch)
		}
	}
}

// drain collects every queued job without blocking, then keeps
// collecting until the batch window (if any) expires.
func (s *Server) drain() []*annotateJob {
	var out []*annotateJob
	for {
		select {
		case j := <-s.jobs:
			out = append(out, j)
			continue
		default:
		}
		break
	}
	if w := s.batchWindow(); w > 0 {
		timer := time.NewTimer(w)
		defer timer.Stop()
		for {
			select {
			case j := <-s.jobs:
				out = append(out, j)
			case <-timer.C:
				return out
			case <-s.quit:
				return out
			}
		}
	}
	return out
}

// runCycle executes one micro-batched execution cycle: tweet IDs are
// assigned in queue order (each request's tweets stay contiguous), the
// coalesced batch runs through ProcessBatch once, and each request is
// answered from its own slice of the result.
func (s *Server) runCycle(jobs []*annotateJob) {
	s.cycles.Add(1)
	so := s.o.Load()
	if so != nil {
		so.queueDepth.Set(int64(len(s.jobs)))
	}
	s.mu.Lock()
	var batch []*types.Sentence
	perJob := make([][]*types.Sentence, len(jobs))
	for ji, job := range jobs {
		for _, sentTokens := range job.tweets {
			for si, toks := range sentTokens {
				sent := &types.Sentence{TweetID: s.nextID, SentID: si, Tokens: toks}
				batch = append(batch, sent)
				perJob[ji] = append(perJob[ji], sent)
				s.sentences[sent.Key()] = sent
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
	if so != nil {
		so.serverCycles.Inc()
		so.jobsPerCycle.Observe(float64(len(jobs)))
		so.sentsPerCycle.Observe(float64(len(batch)))
	}
	// Responses are rendered on the scheduler before the next cycle can
	// mutate anything, so the acker only ever touches cycle-local data.
	resps := make([]annotateResponse, len(jobs))
	for ji := range jobs {
		resp := annotateResponse{StreamSize: streamSize, Candidates: candidates}
		for _, sent := range perJob[ji] {
			sj := SentenceJSON{
				TweetID:  sent.TweetID,
				SentID:   sent.SentID,
				Tokens:   sent.Tokens,
				Entities: []EntityJSON{},
			}
			for _, e := range final[sent.Key()] {
				sj.Entities = append(sj.Entities, EntityJSON{
					Start:   e.Start,
					End:     e.End,
					Type:    e.Type.String(),
					Surface: sent.SurfaceAt(e.Span),
				})
			}
			resp.Sentences = append(resp.Sentences, sj)
		}
		resps[ji] = resp
	}

	// Ack-after-durable: the WAL append is issued before any job is
	// answered, and the acker releases the jobs only after the append's
	// durability wait succeeds — immediate under "always", after the
	// covering group fsync under "group". A failed append bricks the
	// durability layer — in-memory state has already advanced past what
	// disk holds, so continuing would let a later restart silently drop
	// acknowledged cycles.
	if rec != nil {
		wait, err := s.dl.AppendAsync(rec)
		if err != nil {
			s.broken.Store(true)
			for _, job := range jobs {
				job.done <- annotateResponse{err: err}
			}
			return
		}
		s.acks <- &cycleAck{jobs: jobs, resps: resps, wait: wait, snap: snap}
		return
	}

	for ji, job := range jobs {
		job.done <- resps[ji]
	}
}

// acker releases each durable cycle's clients once its durability wait
// succeeds, in cycle order, then submits any scheduled snapshot (after
// the covering fsync, so a snapshot never outruns the WAL it compacts).
// A wait failure is sticky: the layer is bricked and the cycle's jobs
// get the error instead of an ack.
func (s *Server) acker() {
	defer close(s.ackerDone)
	for a := range s.acks {
		if err := a.wait(); err != nil {
			s.broken.Store(true)
			for _, job := range a.jobs {
				job.done <- annotateResponse{err: err}
			}
			continue
		}
		for i, job := range a.jobs {
			job.done <- a.resps[i]
		}
		if a.snap != nil {
			s.dl.SubmitSnapshot(a.snap, a.snap.Seq)
		}
	}
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/annotate", s.counted(s.handleAnnotate))
	mux.HandleFunc("/candidates", s.counted(s.handleCandidates))
	mux.HandleFunc("/entities", s.counted(s.handleEntities))
	mux.HandleFunc("/reset", s.counted(s.handleReset))
	mux.HandleFunc("/metrics", s.counted(s.handleMetrics))
	mux.HandleFunc("/statusz", s.counted(s.handleStatusz))
	mux.HandleFunc("/proof", s.counted(s.handleProof))
	mux.HandleFunc("/healthz", s.counted(s.handleHealthz))
	return mux
}

// counted increments the request counter around a handler when a
// registry is attached.
func (s *Server) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if so := s.o.Load(); so != nil {
			so.requests.Inc()
		}
		h(w, r)
	}
}

// handleMetrics serves the attached registry in Prometheus text
// exposition format. Without a registry the body is empty but the
// endpoint still answers 200, so probes don't flap on configuration.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var reg *obs.Registry
	if so := s.o.Load(); so != nil {
		reg = so.reg
	}
	s.mu.Lock()
	resp := StatuszResponse{
		Cycles:     int(s.cycles.Load()),
		StreamSize: s.g.TweetBase().Len(),
		Candidates: s.g.CandidateBase().Len(),
		Precision:  s.g.Precision().String(),
		GOARCH:     runtime.GOARCH,
		SIMD:       nn.ActiveSIMD().String(),
		SIMDBest:   nn.BestSIMD().String(),
		Metrics:    reg.Snapshot(),
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
	writeJSON(w, resp)
}

// annotateRequest is the POST /annotate payload.
type annotateRequest struct {
	Tweets []string `json:"tweets"`
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

// annotateResponse is the POST /annotate reply: annotations for the
// newly submitted tweets (the whole stream's annotations may shift as
// global context accumulates; re-query by resubmitting or via a full
// pipeline run offline).
type annotateResponse struct {
	Sentences  []SentenceJSON `json:"sentences"`
	StreamSize int            `json:"stream_size"`
	Candidates int            `json:"candidates"`
	// err is set when the cycle ran but could not be made durable; the
	// handler turns it into a 500 instead of acking lost state.
	err error `json:"-"`
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.rejectUnready(w) {
		return
	}
	so := s.o.Load()
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req annotateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Tweets) == 0 {
		http.Error(w, "no tweets", http.StatusBadRequest)
		return
	}

	// Tokenization is pure per-request work: do it on the request
	// goroutine so the scheduler's serial section stays minimal.
	job := &annotateJob{done: make(chan annotateResponse, 1)}
	for _, raw := range req.Tweets {
		job.tweets = append(job.tweets, tokenizer.SplitSentences(tokenizer.Tokenize(raw)))
	}

	// Bounded admission: a full queue answers 503 immediately instead of
	// parking the request goroutine, so overload degrades into fast
	// rejections the client can back off from.
	select {
	case <-s.quit:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	case <-r.Context().Done():
		return
	default:
	}
	select {
	case s.jobs <- job:
		if so != nil {
			so.queueDepth.Set(int64(len(s.jobs)))
		}
	default:
		if so != nil {
			so.rejected.Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, "annotate queue saturated", http.StatusServiceUnavailable)
		return
	}
	select {
	case resp := <-job.done:
		if resp.err != nil {
			http.Error(w, "durability failure: "+resp.err.Error(), http.StatusInternalServerError)
			return
		}
		if so != nil {
			so.annotateSeconds.Observe(time.Since(t0).Seconds())
		}
		writeJSON(w, resp)
	case <-s.quit:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	}
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	tb := s.g.TweetBase()
	out := make([]SentenceEntitiesJSON, 0, tb.Len())
	for _, key := range tb.Keys() {
		rec := tb.Get(key)
		sj := SentenceEntitiesJSON{
			TweetID:  key.TweetID,
			SentID:   key.SentID,
			Entities: []EntityJSON{},
		}
		for _, m := range rec.FinalMentions {
			if m.Type == types.None {
				continue
			}
			sj.Entities = append(sj.Entities, EntityJSON{
				Start:   m.Span.Start,
				End:     m.Span.End,
				Type:    m.Type.String(),
				Surface: rec.Sentence.SurfaceAt(m.Span),
			})
		}
		out = append(out, sj)
	}
	s.mu.Unlock()
	writeJSON(w, out)
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
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
	writeJSON(w, out)
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// A reset would fork the in-memory stream away from the WAL: any
	// later replay would resurrect the pre-reset stream. Durable servers
	// reset by wiping the data dir and restarting instead.
	if s.dl != nil {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dir and restart", http.StatusConflict)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g.Reset()
	s.sentences = make(map[types.SentenceKey]*types.Sentence)
	s.nextID = 0
	w.WriteHeader(http.StatusOK)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
