package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/tokenizer"
)

// maxBodyBytes caps request bodies on every mutating endpoint, keeping
// a hostile client from streaming an unbounded payload into the JSON
// decoder.
const maxBodyBytes = 1 << 20

// queueDepth is the admission bound of the job queue: requests beyond
// it receive 503 rather than blocking.
const queueDepth = 128

// retryAfterSeconds is the Retry-After hint on saturation rejections:
// one coalescing cycle normally clears the whole queue, so a short
// back-off suffices.
const retryAfterSeconds = 1

// Job is one admitted /annotate request: its tweets, already tokenized
// and sentence-split (pure per-request work kept out of the serial
// section), and the one-shot channel its answer comes back on. The
// cycle that takes a job answers it exactly once: Reply, or an HTTP
// error for the whole cycle (Front.Reject).
type Job struct {
	Tweets [][][]string // per tweet, per sentence, tokens
	done   chan jobResult
}

// jobResult is a cycle's answer to one job: a response, or (status != 0)
// an HTTP error to propagate.
type jobResult struct {
	resp       AnnotateResponse
	status     int
	retryAfter int
	msg        string
}

// Reply answers the job with its annotations.
func (j *Job) Reply(resp AnnotateResponse) { j.done <- jobResult{resp: resp} }

// Batch lays a cycle's jobs out as its batch: tweet IDs are assigned
// from startID in queue order (each request's tweets stay contiguous).
// It returns the batch, the number of its sentences that belong to each
// job, and the ID cursor as the cycle leaves it.
func Batch(jobs []*Job, startID int) (batch []durable.CycleSentence, perJob []int, nextID int) {
	perJob = make([]int, len(jobs))
	nextID = startID
	for ji, job := range jobs {
		for _, sentTokens := range job.Tweets {
			for si, toks := range sentTokens {
				batch = append(batch, durable.CycleSentence{TweetID: nextID, SentID: si, Tokens: toks})
			}
			perJob[ji] += len(sentTokens)
			nextID++
		}
	}
	return batch, perJob, nextID
}

// Answer replies to each job of a cycle with its own slice of the
// cycle's annotations: batch and perJob are what Batch returned for the
// jobs, anns is index-aligned with batch.
func Answer(jobs []*Job, perJob []int, batch []durable.CycleSentence, anns []durable.SentenceAnnotation, streamSize, candidates int) {
	si := 0
	for ji, job := range jobs {
		resp := AnnotateResponse{StreamSize: streamSize, Candidates: candidates}
		for _, sent := range batch[si : si+perJob[ji]] {
			resp.Sentences = append(resp.Sentences, SentenceJSON{
				TweetID:  sent.TweetID,
				SentID:   sent.SentID,
				Tokens:   sent.Tokens,
				Entities: RenderEntities(anns[si].Entities),
			})
			si++
		}
		job.Reply(resp)
	}
}

// fail answers every job of a cycle with the same HTTP error
// (retryAfter 0 sends no Retry-After header).
func fail(jobs []*Job, status, retryAfter int, msg string) {
	for _, j := range jobs {
		j.done <- jobResult{status: status, retryAfter: retryAfter, msg: msg}
	}
}

// Front is the serving skeleton the single server and the fleet router
// share: bounded admission of /annotate requests, the scheduler
// goroutine that micro-batches them into execution cycles, the ordered
// tail their second stages run on, the readiness gate in front of all
// of it, and the HTTP plumbing (request counting, /metrics, /healthz).
// A process supplies only what one cycle does with its jobs, and its
// own read endpoints.
//
// A cycle has two stages. Stage one (run) executes on the scheduler
// goroutine, one cycle at a time: it is where the stream advances. What
// it returns (finish) — the wait for durability or for the shards, the
// replies, the snapshot hand-off — executes on the one tail goroutine, in
// cycle order, while the scheduler is in the next cycle's stage one. With
// depth finishes queued behind the one running, the scheduler blocks.
type Front struct {
	// Gate refuses /annotate while startup recovery replays and after a
	// durability failure; the owning process runs its recovery behind it
	// and trips it when a commit cannot be made durable.
	Gate durable.Gate

	run  func([]*Job) (finish func())
	jobs chan *Job
	// tail carries each cycle's finish to the tail goroutine. The
	// scheduler is its only sender, so queue order is cycle order.
	tail     chan func()
	tailDone chan struct{}
	// ops carries exclusive operations to the scheduler. Unbuffered: a
	// completed send means the scheduler has taken the operation and
	// will finish it before it exits.
	ops chan func()

	quit      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	// o carries the HTTP/scheduler metrics; nil when no registry is
	// attached, in which case every hook is a single branch.
	o atomic.Pointer[frontObs]
}

// frontObs is the HTTP- and scheduler-level metric set, registered on
// the same registry as the process's own metrics so one /metrics scrape
// covers the whole process.
type frontObs struct {
	reg *obs.Registry

	requests        *obs.Counter   // ner_http_requests_total
	rejected        *obs.Counter   // ner_http_rejected_total
	annotateSeconds *obs.Histogram // ner_http_annotate_seconds
	jobsPerCycle    *obs.Histogram // ner_batch_jobs_per_cycle
	queueDepth      *obs.Gauge     // ner_jobs_queue_depth
}

// NewFront starts the scheduler and the tail over run, stage one of a
// micro-batched cycle; a nil finish means the cycle answered its jobs
// already, and at most tailDepth finishes queue behind the one running.
// Call Close to stop both.
func NewFront(run func([]*Job) (finish func()), tailDepth int) *Front {
	f := &Front{
		run:      run,
		jobs:     make(chan *Job, queueDepth),
		tail:     make(chan func(), tailDepth),
		tailDone: make(chan struct{}),
		ops:      make(chan func()),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go f.loop()
	go func() {
		defer close(f.tailDone)
		for finish := range f.tail {
			finish()
		}
	}()
	return f
}

// SetObserver attaches a metrics registry: HTTP latency, admission
// rejections and micro-batch shape land on it, and /metrics exposes
// it. A nil registry detaches.
func (f *Front) SetObserver(reg *obs.Registry) {
	if reg == nil {
		f.o.Store(nil)
		return
	}
	f.o.Store(&frontObs{
		reg: reg,
		requests: reg.Counter("ner_http_requests_total",
			"HTTP requests served across all endpoints."),
		rejected: reg.Counter("ner_http_rejected_total",
			"Annotate requests refused without annotations: job queue saturated, or (router) cycle refused or degraded."),
		annotateSeconds: reg.Histogram("ner_http_annotate_seconds",
			"End-to-end /annotate latency (queueing + coalesced cycle).", nil),
		jobsPerCycle: reg.Histogram("ner_batch_jobs_per_cycle",
			"Concurrent requests coalesced into one execution cycle.", obs.SizeBuckets),
		queueDepth: reg.Gauge("ner_jobs_queue_depth",
			"Annotate jobs waiting in the scheduler queue."),
	})
}

// Registry returns the attached registry (nil when detached).
func (f *Front) Registry() *obs.Registry {
	if fo := f.o.Load(); fo != nil {
		return fo.reg
	}
	return nil
}

// Close stops the scheduler — in-flight and queued requests receive
// 503 — and, once its goroutine has exited and the tail has run every
// finish it was handed, runs then: the rest of the owning process's
// shutdown, which may therefore touch scheduler-owned state and seal
// what the finishes were waiting on. Idempotent: a repeated (or
// concurrent) call waits for the first and does nothing.
func (f *Front) Close(then func()) {
	f.closeOnce.Do(func() {
		close(f.quit)
		<-f.loopDone
		close(f.tail)
		<-f.tailDone
		then()
	})
}

// Exclusive runs op on the scheduler goroutine between two cycles, once
// the tail has finished every earlier cycle, so no cycle straddles it,
// and returns once op has; false means the front is closing and op did
// not run.
func (f *Front) Exclusive(op func()) bool {
	done := make(chan struct{})
	select {
	case f.ops <- func() { defer close(done); f.drainTail(); op() }:
		<-done
		return true
	case <-f.quit:
		return false
	}
}

// Reject answers every job of a cycle that was refused or degraded
// before it could produce annotations with the same HTTP error
// (retryAfter 0 sends no Retry-After header), counted on
// ner_http_rejected_total beside the saturation rejections.
func (f *Front) Reject(jobs []*Job, status, retryAfter int, msg string) {
	if fo := f.o.Load(); fo != nil {
		fo.rejected.Add(int64(len(jobs)))
	}
	fail(jobs, status, retryAfter, msg)
}

// drainTail returns once every finish queued so far has run. Scheduler
// goroutine only: nothing else sends on the tail, so a marker that has
// run has the tail empty behind it.
func (f *Front) drainTail() {
	empty := make(chan struct{})
	f.tail <- func() { close(empty) }
	<-empty
}

// loop is the scheduler: it blocks for the first queued request, takes
// everything else that queued meanwhile — while the previous cycle ran —
// runs them as one execution cycle and queues the cycle's finish on the
// tail.
func (f *Front) loop() {
	defer close(f.loopDone)
	for {
		select {
		case <-f.quit:
			return
		case op := <-f.ops:
			op()
		case first := <-f.jobs:
			batch := append([]*Job{first}, f.drain()...)
			if fo := f.o.Load(); fo != nil {
				fo.queueDepth.Set(int64(len(f.jobs)))
				fo.jobsPerCycle.Observe(float64(len(batch)))
			}
			if finish := f.run(batch); finish != nil {
				f.tail <- finish
			}
		}
	}
}

// drain collects every queued job without blocking.
func (f *Front) drain() []*Job {
	var out []*Job
	for {
		select {
		case j := <-f.jobs:
			out = append(out, j)
		default:
			return out
		}
	}
}

// Mux returns a mux serving the front's own endpoints — /annotate,
// /metrics, /healthz; the process adds its read endpoints wrapped in
// Counted. The mux patterns carry the method, so a wrong one answers
// 405 before any handler runs.
func (f *Front) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /annotate", f.Counted(f.handleAnnotate))
	mux.HandleFunc("GET /metrics", f.Counted(func(w http.ResponseWriter, r *http.Request) {
		WriteMetrics(w, f.Registry())
	}))
	mux.HandleFunc("/healthz", f.Counted(f.Gate.ServeHealthz))
	return mux
}

// Counted increments the request counter around a handler when a
// registry is attached.
func (f *Front) Counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fo := f.o.Load(); fo != nil {
			fo.requests.Inc()
		}
		h(w, r)
	}
}

// annotateRequest is the POST /annotate payload.
type annotateRequest struct {
	Tweets []string `json:"tweets"`
}

// AnnotateResponse is the POST /annotate reply: annotations for the
// newly submitted tweets (the whole stream's annotations may shift as
// global context accumulates; GET /entities serves the current ones).
type AnnotateResponse struct {
	Sentences  []SentenceJSON `json:"sentences"`
	StreamSize int            `json:"stream_size"`
	Candidates int            `json:"candidates"`
}

func (f *Front) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	if f.Gate.Reject(w) {
		return
	}
	fo := f.o.Load()
	var t0 time.Time
	if fo != nil {
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
	job := &Job{done: make(chan jobResult, 1)}
	for i, raw := range req.Tweets {
		sents := tokenizer.SplitSentences(tokenizer.Tokenize(raw))
		// A tweet without a sentence would take an ID that no cycle record
		// mentions, and recovery rebuilds the ID cursor from the records: a
		// restart would hand the ID out again.
		if len(sents) == 0 {
			http.Error(w, "tweet "+strconv.Itoa(i)+" has no tokens", http.StatusBadRequest)
			return
		}
		job.Tweets = append(job.Tweets, sents)
	}

	// Bounded admission: a full queue answers 503 immediately instead of
	// parking the request goroutine, so overload degrades into fast
	// rejections the client can back off from.
	select {
	case <-f.quit:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	case <-r.Context().Done():
		return
	default:
	}
	select {
	case f.jobs <- job:
		if fo != nil {
			fo.queueDepth.Set(int64(len(f.jobs)))
		}
	default:
		if fo != nil {
			fo.rejected.Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, "annotate queue saturated", http.StatusServiceUnavailable)
		return
	}
	select {
	case res := <-job.done:
		if res.status != 0 {
			if res.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
			}
			http.Error(w, res.msg, res.status)
			return
		}
		if fo != nil {
			fo.annotateSeconds.Observe(time.Since(t0).Seconds())
		}
		WriteJSON(w, res.resp)
	case <-f.quit:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	}
}

// WriteMetrics serves a registry in Prometheus text exposition format.
// Without a registry the body is empty but the endpoint still answers
// 200, so probes don't flap on configuration.
func WriteMetrics(w http.ResponseWriter, reg *obs.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// WriteJSON answers 200 with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// RenderEntities renders one sentence's entities as every endpoint
// serves them — never nil, so a sentence without entities encodes as [].
// Surface is the canonical surface the owning replica shipped.
func RenderEntities(ents []durable.Entity) []EntityJSON {
	out := make([]EntityJSON, len(ents))
	for i, e := range ents {
		out[i] = EntityJSON{Start: e.Start, End: e.End, Type: e.Type.String(), Surface: e.Surface}
	}
	return out
}
