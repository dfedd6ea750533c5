package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
)

// routerMaxBodyBytes caps public JSON request bodies, matching the
// single-process server's bound.
const routerMaxBodyBytes = 1 << 20

// routerQueueDepth is the /annotate admission bound, matching the
// single-process server's.
const routerQueueDepth = 128

// routerRetryAfterSeconds is the Retry-After hint on router-side
// rejections (queue saturation, aborted cycles).
const routerRetryAfterSeconds = 1

// maxPendingCommits bounds the per-shard queue of commits a degraded
// shard has missed. When a shard is down long enough to hit the bound
// the router stops ingesting (503) rather than growing memory without
// limit — replicas stay reconcilable and the operator gets back
// pressure instead of an OOM.
const maxPendingCommits = 64

// routerJob is one enqueued /annotate request: tweets already
// tokenized and sentence-split on the request goroutine, and the
// channel its outcome comes back on.
type routerJob struct {
	tweets [][][]string // per tweet, per sentence, tokens
	done   chan routerJobResult
}

// routerJobResult is a cycle's answer to one job: either a response or
// an HTTP error to propagate.
type routerJobResult struct {
	resp       annotateResponse
	status     int // 0 = success
	retryAfter int
	errMsg     string
}

// annotateResponse mirrors the single-process server's /annotate reply
// field for field, so fleet responses are byte-identical.
type annotateResponse struct {
	Sentences  []server.SentenceJSON `json:"sentences"`
	StreamSize int                   `json:"stream_size"`
	Candidates int                   `json:"candidates"`
}

// annotateRequest mirrors the single-process server's payload.
type annotateRequest struct {
	Tweets []string `json:"tweets"`
}

// Router is the fleet's stateless front: it owns tokenization, tweet
// ID assignment, and the cycle schedule, fanning tag and commit RPCs
// to the shards and merging their owned annotations back into request
// order. "Stateless" means no model and no stream state — everything
// the router tracks (ID counter, token cache for rendering, pending
// commits) is reconstructible from the shards plus a reset.
type Router struct {
	clients []*ShardClient

	mu     sync.Mutex
	nextID int
	seq    uint64
	// journaledID is the ID watermark of the last journaled cycle:
	// every sentence with TweetID below it is covered by the intent
	// journal. Router snapshots clamp to it so a pipelined commit's
	// snapshot can never capture IDs a concurrent prepare published but
	// has not yet journaled (zero / unused without -data-dir).
	journaledID int
	// sentences caches the tokens of every ingested sentence so
	// /entities can render surfaces without re-asking the shards.
	sentences map[types.SentenceKey]*types.Sentence
	// pending holds, per shard, commits the shard has missed (oldest
	// first). They drain in seq order before the shard takes new ones.
	pending [][]*CommitRequest
	window  time.Duration

	jobs      chan *routerJob
	quit      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	cycles atomic.Int64

	// Cycle N's commit fan-out overlaps cycle N+1's tag stage: the
	// scheduler hands each prepared cycle to a commit goroutine chained
	// behind the previous cycle's, so per-shard commit order — and with
	// it the seq gate — is untouched while the router's tag work runs
	// ahead. Tagging is pure (it reads the trained model, never the
	// stream), so the overlap cannot change a single byte of any commit.
	//
	// prevCommit / pprevCommit are the done channels of the last two
	// scheduled commit goroutines. Scheduler-owned (loop goroutine
	// only): waiting on pprevCommit before spawning the next commit
	// bounds the pipeline at one commit in flight plus one chained.
	prevCommit  chan struct{}
	pprevCommit chan struct{}
	// lastCommitDone mirrors prevCommit under mu for Close and reset,
	// which must wait out in-flight commits from other goroutines.
	lastCommitDone chan struct{}

	statsMu     sync.Mutex
	recordStats bool
	stats       []CycleStat

	o atomic.Pointer[routerObs]

	// Durability (nil / zero unless StartDurable was called): the
	// intent journal — appended before every commit fan-out — and the
	// recovery lifecycle flags.
	dl         *durable.Log
	replaying  atomic.Bool
	broken     atomic.Bool
	replayDone chan struct{}
	recoverErr error
}

// CycleStat is one committed cycle's timing decomposition. The
// distributed critical path — what a fleet with each shard on its own
// machine and the fan-outs running in parallel would spend on the
// cycle — is
//
//	WallSeconds - TagRPCSum - CommitRPCSum + TagRPCMax + CommitRPCMax
//
// wall-clock minus every shard RPC's client-observed round trip (which
// a single-box harness with fewer cores than shards strings end to
// end), plus the slowest RPC of each of the two sequential stages.
// Each round trip includes the shard's busy time AND the per-RPC
// transport cost (connection handling, body transfer, response
// decode), so the model charges transport to the per-shard lanes it
// actually rides on rather than to the router's serial residue. At one
// shard every sum equals its max and the expression reduces to
// WallSeconds exactly, which anchors the model to a measured number.
//
// The Busy fields carry the shard-reported handler times for the same
// stages — the gap between an RPC max and a busy max is the per-RPC
// transport overhead, reported so it stays visible as data.
type CycleStat struct {
	WallSeconds   float64
	TagRPCSum     float64
	TagRPCMax     float64
	CommitRPCSum  float64
	CommitRPCMax  float64
	TagBusyMax    float64
	CommitBusyMax float64
	BusySum       float64
}

// routerObs is the router metric set. The obs registry has no label
// support, so per-shard series are materialized as suffixed names
// (ner_fleet_shard0_rpc_seconds, ...).
type routerObs struct {
	reg *obs.Registry

	requests     *obs.Counter   // ner_http_requests_total
	rejected     *obs.Counter   // ner_http_rejected_total
	fleetCycles  *obs.Counter   // ner_fleet_cycles_total
	degraded     *obs.Counter   // ner_fleet_degraded_cycles_total
	tagSeconds   *obs.Histogram // ner_fleet_tag_seconds
	mergeSeconds *obs.Histogram // ner_fleet_merge_seconds

	shardRPC  []*obs.Histogram // ner_fleet_shard<i>_rpc_seconds
	shardErrs []*obs.Counter   // ner_fleet_shard<i>_errors_total
	// transport holds, per shard, the frame-connection counters the
	// shard's client feeds: ner_fleet_shard<i>_rpc_bytes_sent_total /
	// _received_total, and the fleet-wide
	// ner_fleet_connections_dialed_total and ner_fleet_rpc_redials_total.
	transport []*clientObs
}

func newRouterObs(reg *obs.Registry, shards int) *routerObs {
	if reg == nil {
		return nil
	}
	ro := &routerObs{
		reg: reg,
		requests: reg.Counter("ner_http_requests_total",
			"HTTP requests served across all router endpoints."),
		rejected: reg.Counter("ner_http_rejected_total",
			"Annotate requests rejected with 503 (queue saturation or degraded cycle)."),
		fleetCycles: reg.Counter("ner_fleet_cycles_total",
			"Execution cycles the router has committed to the fleet."),
		degraded: reg.Counter("ner_fleet_degraded_cycles_total",
			"Committed cycles some shard missed (its commit went to the pending queue)."),
		tagSeconds: reg.Histogram("ner_fleet_tag_seconds",
			"Wall-clock of the partitioned tag fan-out per cycle.", nil),
		mergeSeconds: reg.Histogram("ner_fleet_merge_seconds",
			"Wall-clock of the cross-shard annotation merge per cycle.", nil),
	}
	dialed := reg.Counter("ner_fleet_connections_dialed_total",
		"Frame connections the router opened to shards.")
	redials := reg.Counter("ner_fleet_rpc_redials_total",
		"Shard RPCs resent on a fresh connection after a kept-open one turned out stale.")
	for i := 0; i < shards; i++ {
		ro.transport = append(ro.transport, &clientObs{
			sent: reg.Counter(fmt.Sprintf("ner_fleet_shard%d_rpc_bytes_sent_total", i),
				fmt.Sprintf("Request frame bytes written to shard %d.", i)),
			received: reg.Counter(fmt.Sprintf("ner_fleet_shard%d_rpc_bytes_received_total", i),
				fmt.Sprintf("Reply frame bytes read from shard %d.", i)),
			dialed:  dialed,
			redials: redials,
		})
		ro.shardRPC = append(ro.shardRPC, reg.Histogram(
			fmt.Sprintf("ner_fleet_shard%d_rpc_seconds", i),
			fmt.Sprintf("Round-trip latency of RPCs to shard %d.", i), nil))
		ro.shardErrs = append(ro.shardErrs, reg.Counter(
			fmt.Sprintf("ner_fleet_shard%d_errors_total", i),
			fmt.Sprintf("Failed RPCs to shard %d (unavailable, timeout, conflict).", i)))
	}
	return ro
}

// NewRouter builds a router over the given shard clients (index order
// must match the shards' ownership indices) and starts its scheduler.
// Call Close to stop it.
func NewRouter(clients []*ShardClient) *Router {
	r := &Router{
		clients:   clients,
		sentences: make(map[types.SentenceKey]*types.Sentence),
		pending:   make([][]*CommitRequest, len(clients)),
		jobs:      make(chan *routerJob, routerQueueDepth),
		quit:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	go r.loop()
	return r
}

// Close stops the scheduler, waits out any in-flight commit fan-out,
// and releases the shard connection pools.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.quit) })
	<-r.loopDone
	r.waitCommitsIdle()
	if r.replayDone != nil {
		<-r.replayDone
	}
	if r.dl != nil {
		r.dl.Close()
	}
	for _, c := range r.clients {
		c.Close()
	}
}

// waitCommitsIdle blocks until the most recently scheduled commit
// goroutine has finished. Commits chain in cycle order, so the latest
// done channel covers every earlier one.
func (r *Router) waitCommitsIdle() {
	r.mu.Lock()
	done := r.lastCommitDone
	r.mu.Unlock()
	if done != nil {
		<-done
	}
}

// SetObserver attaches a metrics registry to the router.
func (r *Router) SetObserver(reg *obs.Registry) {
	ro := newRouterObs(reg, len(r.clients))
	r.o.Store(ro)
	for i, c := range r.clients {
		co := &clientObs{}
		if ro != nil {
			co = ro.transport[i]
		}
		c.o.Store(co)
	}
}

// SetBatchWindow sets the micro-batch coalescing window, mirroring the
// single-process server's knob.
func (r *Router) SetBatchWindow(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.window = d
}

// SetRPCTimeout re-bounds every shard RPC (tests use short ones).
func (r *Router) SetRPCTimeout(d time.Duration) {
	for _, c := range r.clients {
		c.SetTimeout(d)
	}
}

// SetRecordStats toggles per-cycle timing capture for TakeCycleStats.
func (r *Router) SetRecordStats(on bool) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.recordStats = on
	r.stats = nil
}

// TakeCycleStats returns the timing of every cycle committed since the
// last call (or since SetRecordStats) and clears the buffer.
func (r *Router) TakeCycleStats() []CycleStat {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	out := r.stats
	r.stats = nil
	return out
}

// Cycles reports how many execution cycles the router has committed.
func (r *Router) Cycles() int { return int(r.cycles.Load()) }

// Shards reports the fleet size.
func (r *Router) Shards() int { return len(r.clients) }

func (r *Router) batchWindow() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window
}

// loop is the scheduler: one cycle at a time, coalescing everything
// queued while the previous cycle was in flight.
func (r *Router) loop() {
	defer close(r.loopDone)
	for {
		select {
		case <-r.quit:
			return
		case first := <-r.jobs:
			batch := append([]*routerJob{first}, r.drain()...)
			r.runCycle(batch)
		}
	}
}

func (r *Router) drain() []*routerJob {
	var out []*routerJob
	for {
		select {
		case j := <-r.jobs:
			out = append(out, j)
			continue
		default:
		}
		break
	}
	if w := r.batchWindow(); w > 0 {
		timer := time.NewTimer(w)
		defer timer.Stop()
		for {
			select {
			case j := <-r.jobs:
				out = append(out, j)
			case <-timer.C:
				return out
			case <-r.quit:
				return out
			}
		}
	}
	return out
}

// failAll answers every job in the cycle with the same HTTP error.
func failAll(jobs []*routerJob, status, retryAfter int, msg string) {
	for _, j := range jobs {
		j.done <- routerJobResult{status: status, retryAfter: retryAfter, errMsg: msg}
	}
}

// runCycle executes one micro-batched cycle against the fleet:
//
//  1. Admission: refuse outright if any shard's pending queue is full.
//  2. Tag: shard i tags the i-th contiguous slice of the batch, with
//     failover to the next shard (tagging is pure). If a slice cannot
//     be tagged anywhere the cycle aborts with no state change.
//  3. Commit: once tagging succeeded the cycle is ingested — seq and
//     the ID counter advance — and every shard receives the full batch
//     plus full tag results, draining its pending queue first. A shard
//     that fails gets the commit queued instead.
//  4. Respond: if every shard committed, the owned annotations merge
//     into request order; otherwise the jobs get 503 + Retry-After
//     (their tweets are in the stream, but annotations would be
//     missing the degraded shard's surfaces).
func (r *Router) runCycle(jobs []*routerJob) {
	cycleStart := time.Now()
	r.cycles.Add(1)
	ro := r.o.Load()
	if ro != nil {
		ro.fleetCycles.Inc()
	}

	// Admission against pending overflow.
	r.mu.Lock()
	for i := range r.pending {
		if len(r.pending[i]) >= maxPendingCommits {
			r.mu.Unlock()
			failAll(jobs, http.StatusServiceUnavailable, routerRetryAfterSeconds,
				fmt.Sprintf("shard %d unreachable, pending commits full", i))
			return
		}
	}
	// Tentative ID assignment in queue order; nothing is published
	// until the tag stage succeeds.
	startID := r.nextID
	r.mu.Unlock()
	id := startID
	var batch []*types.Sentence
	perJob := make([][]*types.Sentence, len(jobs))
	for ji, job := range jobs {
		for _, sentTokens := range job.tweets {
			for si, toks := range sentTokens {
				sent := &types.Sentence{TweetID: id, SentID: si, Tokens: toks}
				batch = append(batch, sent)
				perJob[ji] = append(perJob[ji], sent)
			}
			id++
		}
	}

	// Tag fan-out with failover.
	tagged, tagBusy, tagRPC, err := r.tagPartitioned(batch, int(r.cycles.Load()))
	if err != nil {
		failAll(jobs, http.StatusServiceUnavailable, routerRetryAfterSeconds,
			"tag stage failed on every shard: "+err.Error())
		return
	}

	// The cycle is now ingested: publish IDs and sentences, take a seq.
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.nextID = id
	for _, s := range batch {
		r.sentences[s.Key()] = s
	}
	r.mu.Unlock()

	// Journal the intent before any shard sees the commit: after a
	// router crash, every cycle a shard may have applied is re-drivable
	// from the journal. The append is a blocking (durable) one even
	// under fsync=group — a shard must never get ahead of the journal's
	// disk, or recovery would find records the journal lost.
	if r.dl != nil {
		if err := r.journalCycle(seq, batch); err != nil {
			failAll(jobs, http.StatusInternalServerError, 0, "journal failure: "+err.Error())
			return
		}
		r.mu.Lock()
		r.journaledID = id
		r.mu.Unlock()
	}

	req := &CommitRequest{
		Seq:       seq,
		Sentences: ToWireSentences(batch),
		Tagged:    tagged,
		Mode:      core.ModeFull,
	}
	// One encode serves the whole fan-out: every shard receives the
	// same bytes, so the router's serialization cost does not grow with
	// the fleet.
	body, encErr := req.encode()
	if encErr != nil {
		// Unreachable with well-formed engine output; queue the commit
		// everywhere so seq bookkeeping stays consistent and degrade.
		r.mu.Lock()
		for i := range r.pending {
			r.pending[i] = append(r.pending[i], req)
		}
		r.mu.Unlock()
		if ro != nil {
			ro.degraded.Inc()
		}
		failAll(jobs, http.StatusInternalServerError, 0, encErr.Error())
		return
	}

	work := &commitWork{
		jobs: jobs, perJob: perJob, batch: batch,
		req: req, body: body, seq: seq,
		tagBusy: tagBusy, tagRPC: tagRPC,
		cycleStart: cycleStart,
	}
	// Hand the commit fan-out to a goroutine chained behind the
	// previous cycle's, so shards still see commits strictly in seq
	// order while the scheduler moves on to the next cycle's tag stage.
	// Waiting on the cycle-before-last bounds the chain at one commit
	// running plus one queued.
	if r.pprevCommit != nil {
		<-r.pprevCommit
	}
	prev := r.prevCommit
	done := make(chan struct{})
	r.mu.Lock()
	r.lastCommitDone = done
	r.mu.Unlock()
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		r.commitCycle(work)
	}()
	r.pprevCommit, r.prevCommit = r.prevCommit, done
}

// commitWork is one prepared cycle awaiting its commit fan-out: the
// jobs to answer, the shared pre-encoded commit body, and the tag-stage
// timings for CycleStat.
type commitWork struct {
	jobs       []*routerJob
	perJob     [][]*types.Sentence
	batch      []*types.Sentence
	req        *CommitRequest
	body       []byte
	seq        uint64
	tagBusy    []float64
	tagRPC     []float64
	cycleStart time.Time
}

// commitCycle runs one prepared cycle's commit fan-out, degradation
// handling, merge, and response — stages 3 and 4 of runCycle — on the
// cycle's chained commit goroutine.
func (r *Router) commitCycle(work *commitWork) {
	jobs, batch, perJob := work.jobs, work.batch, work.perJob
	req, seq := work.req, work.seq
	ro := r.o.Load()
	k := len(r.clients)
	resps := make([]*CommitResponse, k)
	commitRPC := make([]float64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], commitRPC[i], errs[i] = r.commitShard(i, req, work.body)
		}(i)
	}
	wg.Wait()

	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) > 0 {
		if ro != nil {
			ro.degraded.Inc()
		}
		retry := routerRetryAfterSeconds
		for _, i := range failed {
			var ue *ShardUnavailableError
			if errors.As(errs[i], &ue) && ue.RetryAfter > retry {
				retry = ue.RetryAfter
			}
		}
		failAll(jobs, http.StatusServiceUnavailable, retry,
			fmt.Sprintf("%d of %d shards degraded this cycle", len(failed), k))
		return
	}

	if r.dl != nil {
		if snap := r.maybeSnapshot(seq); snap != nil {
			r.dl.SubmitSnapshot(snap, snap.Seq)
		}
	}

	t0 := time.Now()
	streamSize := resps[0].StreamSize
	candidates := 0
	for _, resp := range resps {
		candidates += resp.Candidates
	}
	// Merge each sentence's per-shard groups and answer per job.
	merged := make([][]WireEntity, len(batch))
	parts := make([][]WireEntity, k)
	for si := range batch {
		for i, resp := range resps {
			parts[i] = resp.Entities[si].Entities
		}
		merged[si] = mergeEntityGroups(parts)
	}
	bi := 0
	for ji, job := range jobs {
		resp := annotateResponse{StreamSize: streamSize, Candidates: candidates}
		for _, sent := range perJob[ji] {
			sj := server.SentenceJSON{
				TweetID:  sent.TweetID,
				SentID:   sent.SentID,
				Tokens:   sent.Tokens,
				Entities: []server.EntityJSON{},
			}
			for _, e := range merged[bi] {
				sj.Entities = append(sj.Entities, server.EntityJSON{
					Start:   e.Start,
					End:     e.End,
					Type:    e.Type.String(),
					Surface: sent.SurfaceAt(types.Span{Start: e.Start, End: e.End}),
				})
			}
			resp.Sentences = append(resp.Sentences, sj)
			bi++
		}
		job.done <- routerJobResult{resp: resp}
	}
	if ro != nil {
		ro.mergeSeconds.Observe(time.Since(t0).Seconds())
	}

	r.statsMu.Lock()
	if r.recordStats {
		stat := CycleStat{WallSeconds: time.Since(work.cycleStart).Seconds()}
		for i, b := range work.tagBusy {
			stat.BusySum += b
			stat.TagRPCSum += work.tagRPC[i]
			if b > stat.TagBusyMax {
				stat.TagBusyMax = b
			}
			if work.tagRPC[i] > stat.TagRPCMax {
				stat.TagRPCMax = work.tagRPC[i]
			}
		}
		for i, resp := range resps {
			stat.BusySum += resp.BusySeconds
			stat.CommitRPCSum += commitRPC[i]
			if resp.BusySeconds > stat.CommitBusyMax {
				stat.CommitBusyMax = resp.BusySeconds
			}
			if commitRPC[i] > stat.CommitRPCMax {
				stat.CommitRPCMax = commitRPC[i]
			}
		}
		r.stats = append(r.stats, stat)
	}
	r.statsMu.Unlock()
}

// tagPartitioned cuts the batch into K contiguous slices and has shard
// (i+rot) mod K tag the i-th, failing over to the next shard in ring
// order when one refuses: tagging is pure, so any shard's answer is
// byte-identical. Callers pass the cycle counter as rot, so the larger
// share of an uneven cut — the whole batch, in a one-sentence cycle —
// moves round the fleet instead of always landing on shard K−1. The
// extra returns are each slice's shard-reported busy time and its
// client-observed RPC round trip, for critical-path accounting.
func (r *Router) tagPartitioned(batch []*types.Sentence, rot int) ([]WireTag, []float64, []float64, error) {
	k := len(r.clients)
	ro := r.o.Load()
	t0 := time.Now()
	tagged := make([]WireTag, len(batch))
	busy := make([]float64, k)
	rpc := make([]float64, k)
	errs := make([]error, k)
	tagSlice := func(i, lo, hi int) {
		req := &TagRequest{Sentences: ToWireSentences(batch[lo:hi])}
		var resp *TagResponse
		var err error
		st0 := time.Now()
		for attempt := 0; attempt < k; attempt++ {
			shard := (i + rot + attempt) % k
			rt0 := time.Now()
			resp, err = r.clients[shard].Tag(req)
			if ro != nil {
				ro.shardRPC[shard].Observe(time.Since(rt0).Seconds())
				if err != nil {
					ro.shardErrs[shard].Inc()
				}
			}
			if err == nil {
				break
			}
		}
		rpc[i] = time.Since(st0).Seconds()
		if err != nil {
			errs[i] = err
			return
		}
		busy[i] = resp.BusySeconds
		copy(tagged[lo:hi], resp.Results)
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		lo, hi := i*len(batch)/k, (i+1)*len(batch)/k
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			tagSlice(i, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if ro != nil {
		ro.tagSeconds.Observe(time.Since(t0).Seconds())
	}
	return tagged, busy, rpc, nil
}

// commitShard drains shard i's pending commits in seq order, then
// applies req (whose pre-encoded body the caller shares across the
// fan-out). Any failure queues req (and keeps the rest of the pending
// queue) so the shard can catch up next cycle — the shard's seq gate
// guarantees replayed commits apply exactly once. The second return is
// the shard's total client-observed commit round-trip time this cycle
// (replays included — they ride the same per-shard lane).
func (r *Router) commitShard(i int, req *CommitRequest, body []byte) (*CommitResponse, float64, error) {
	ro := r.o.Load()
	lane := time.Now()
	observe := func(t0 time.Time, err error) {
		if ro != nil {
			ro.shardRPC[i].Observe(time.Since(t0).Seconds())
			if err != nil {
				ro.shardErrs[i].Inc()
			}
		}
	}
	for {
		r.mu.Lock()
		if len(r.pending[i]) == 0 {
			r.mu.Unlock()
			break
		}
		head := r.pending[i][0]
		r.mu.Unlock()
		t0 := time.Now()
		_, err := r.clients[i].Commit(head)
		observe(t0, err)
		if err != nil {
			r.mu.Lock()
			r.pending[i] = append(r.pending[i], req)
			r.mu.Unlock()
			return nil, time.Since(lane).Seconds(), err
		}
		r.mu.Lock()
		r.pending[i] = r.pending[i][1:]
		r.mu.Unlock()
	}
	t0 := time.Now()
	resp, err := r.clients[i].CommitEncoded(body)
	observe(t0, err)
	if err != nil {
		r.mu.Lock()
		r.pending[i] = append(r.pending[i], req)
		r.mu.Unlock()
		return nil, time.Since(lane).Seconds(), err
	}
	return resp, time.Since(lane).Seconds(), nil
}

// mergeEntityGroups interleaves per-shard surface groups back into the
// engine's sorted-surface-major order. Each shard's list is already
// grouped by ascending canonical surface, and a surface lives on
// exactly one shard, so a linear k-way group merge reproduces the
// single-process ordering exactly.
func mergeEntityGroups(parts [][]WireEntity) []WireEntity {
	idx := make([]int, len(parts))
	var out []WireEntity
	for {
		best := -1
		for s, p := range parts {
			if idx[s] >= len(p) {
				continue
			}
			if best == -1 || p[idx[s]].Surface < parts[best][idx[best]].Surface {
				best = s
			}
		}
		if best == -1 {
			return out
		}
		p := parts[best]
		surf := p[idx[best]].Surface
		for idx[best] < len(p) && p[idx[best]].Surface == surf {
			out = append(out, p[idx[best]])
			idx[best]++
		}
	}
}

// Handler returns the router's routed HTTP handler. The public
// endpoints (/annotate, /candidates, /entities, /reset) are
// byte-compatible with the single-process server's.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/annotate", r.counted(r.handleAnnotate))
	mux.HandleFunc("/candidates", r.counted(r.handleCandidates))
	mux.HandleFunc("/entities", r.counted(r.handleEntities))
	mux.HandleFunc("/reset", r.counted(r.handleReset))
	mux.HandleFunc("/metrics", r.counted(r.handleMetrics))
	mux.HandleFunc("/statusz", r.counted(r.handleStatusz))
	mux.HandleFunc("/proof", r.counted(r.handleProof))
	mux.HandleFunc("/healthz", r.counted(r.handleHealthz))
	return mux
}

func (r *Router) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if ro := r.o.Load(); ro != nil {
			ro.requests.Inc()
		}
		h(w, req)
	}
}

func (r *Router) handleAnnotate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if r.rejectUnready(w) {
		return
	}
	ro := r.o.Load()
	req.Body = http.MaxBytesReader(w, req.Body, routerMaxBodyBytes)
	var ar annotateRequest
	if err := json.NewDecoder(req.Body).Decode(&ar); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(ar.Tweets) == 0 {
		http.Error(w, "no tweets", http.StatusBadRequest)
		return
	}

	job := &routerJob{done: make(chan routerJobResult, 1)}
	for _, raw := range ar.Tweets {
		job.tweets = append(job.tweets, tokenizer.SplitSentences(tokenizer.Tokenize(raw)))
	}

	select {
	case <-r.quit:
		http.Error(w, "router shutting down", http.StatusServiceUnavailable)
		return
	case <-req.Context().Done():
		return
	default:
	}
	select {
	case r.jobs <- job:
	default:
		if ro != nil {
			ro.rejected.Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(routerRetryAfterSeconds))
		http.Error(w, "annotate queue saturated", http.StatusServiceUnavailable)
		return
	}
	select {
	case res := <-job.done:
		if res.status != 0 {
			if ro != nil {
				ro.rejected.Inc()
			}
			if res.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
			}
			http.Error(w, res.errMsg, res.status)
			return
		}
		writeJSON(w, res.resp)
	case <-r.quit:
		http.Error(w, "router shutting down", http.StatusServiceUnavailable)
	}
}

// handleCandidates fans the candidates RPC in from every shard and
// k-way merges the disjoint, surface-sorted lists back into the global
// sorted order — byte-identical to the single server's /candidates.
func (r *Router) handleCandidates(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	k := len(r.clients)
	parts := make([][]WireCandidate, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = r.clients[i].Candidates()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			http.Error(w, "candidate fan-in: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	idx := make([]int, k)
	out := []server.CandidateJSON{}
	for {
		best := -1
		for i := 0; i < k; i++ {
			if idx[i] >= len(parts[i]) {
				continue
			}
			if best == -1 || parts[i][idx[i]].Surface < parts[best][idx[best]].Surface {
				best = i
			}
		}
		if best == -1 {
			break
		}
		surf := parts[best][idx[best]].Surface
		for idx[best] < len(parts[best]) && parts[best][idx[best]].Surface == surf {
			c := parts[best][idx[best]]
			out = append(out, server.CandidateJSON{
				Surface:    c.Surface,
				ClusterID:  c.ClusterID,
				Type:       c.Type.String(),
				Mentions:   c.Mentions,
				Confidence: c.Confidence,
			})
			idx[best]++
		}
	}
	writeJSON(w, out)
}

// handleEntities fans the entities RPC in from every shard and merges
// the whole stream's annotations in insertion order — byte-identical
// to the single server's /entities.
func (r *Router) handleEntities(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	k := len(r.clients)
	parts := make([][]SentenceEntities, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = r.clients[i].Entities()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			http.Error(w, "entity fan-in: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	for i := 1; i < k; i++ {
		if len(parts[i]) != len(parts[0]) {
			http.Error(w, fmt.Sprintf("entity fan-in: shard stream sizes differ (%d vs %d)",
				len(parts[0]), len(parts[i])), http.StatusBadGateway)
			return
		}
	}
	// Look the sentences up under the lock — runCycle inserts into the
	// map while annotate traffic flows. The sentences themselves are
	// immutable once published.
	sents := make([]*types.Sentence, len(parts[0]))
	r.mu.Lock()
	for si := range parts[0] {
		sents[si] = r.sentences[types.SentenceKey{TweetID: parts[0][si].TweetID, SentID: parts[0][si].SentID}]
	}
	r.mu.Unlock()
	out := []server.SentenceEntitiesJSON{}
	groups := make([][]WireEntity, k)
	for si := range parts[0] {
		for i := 0; i < k; i++ {
			groups[i] = parts[i][si].Entities
		}
		sj := server.SentenceEntitiesJSON{
			TweetID:  parts[0][si].TweetID,
			SentID:   parts[0][si].SentID,
			Entities: []server.EntityJSON{},
		}
		sent := sents[si]
		for _, e := range mergeEntityGroups(groups) {
			surface := e.Surface
			if sent != nil {
				surface = sent.SurfaceAt(types.Span{Start: e.Start, End: e.End})
			}
			sj.Entities = append(sj.Entities, server.EntityJSON{
				Start:   e.Start,
				End:     e.End,
				Type:    e.Type.String(),
				Surface: surface,
			})
		}
		out = append(out, sj)
	}
	writeJSON(w, out)
}

// handleReset clears the whole fleet's stream state: every shard, then
// the router's own counters. Failures leave the fleet inconsistent and
// surface as 502 so the operator retries.
func (r *Router) handleReset(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if r.dl != nil {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dirs and restart the fleet", http.StatusConflict)
		return
	}
	// A pipelined commit may still be in flight; let it land before
	// zeroing the fleet so the reset cannot interleave with a cycle.
	r.waitCommitsIdle()
	for _, c := range r.clients {
		if err := c.Reset(); err != nil {
			http.Error(w, "reset fan-out: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	r.mu.Lock()
	r.nextID = 0
	r.seq = 0
	r.sentences = make(map[types.SentenceKey]*types.Sentence)
	r.pending = make([][]*CommitRequest, len(r.clients))
	r.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var reg *obs.Registry
	if ro := r.o.Load(); ro != nil {
		reg = ro.reg
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// RouterShardStatus is one shard's entry in the router's /statusz:
// reachability, the router-side pending-commit backlog, and the
// shard's own resolved settings for homogeneity checks.
type RouterShardStatus struct {
	Index   int    `json:"index"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	Pending int    `json:"pending_commits"`
	// OpenConns counts the router's open frame connections to the shard;
	// BytesPerCommit is the mean size of the commit frames sent to it.
	OpenConns      int         `json:"open_connections"`
	BytesPerCommit float64     `json:"bytes_per_commit"`
	Status         ShardStatus `json:"status"`
}

// RouterStatuszResponse is the router's GET /statusz payload.
type RouterStatuszResponse struct {
	Role   string `json:"role"`
	Cycles int    `json:"cycles"`
	Seq    uint64 `json:"seq"`
	// Durability summarizes the router journal's commit path; nil
	// without -data-dir.
	Durability *durable.Status     `json:"durability,omitempty"`
	Shards     []RouterShardStatus `json:"shards"`
	Metrics    obs.Snapshot        `json:"metrics"`
}

func (r *Router) handleStatusz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	k := len(r.clients)
	shards := make([]RouterShardStatus, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.clients[i].Status()
			shards[i] = RouterShardStatus{
				Index:   i,
				URL:     r.clients[i].BaseURL(),
				Healthy: err == nil,
				Status:  st,
			}
			if err != nil {
				shards[i].Error = err.Error()
			}
			shards[i].OpenConns, shards[i].BytesPerCommit = r.clients[i].transportStatus()
		}(i)
	}
	wg.Wait()
	r.mu.Lock()
	for i := range shards {
		shards[i].Pending = len(r.pending[i])
	}
	seq := r.seq
	r.mu.Unlock()
	var reg *obs.Registry
	if ro := r.o.Load(); ro != nil {
		reg = ro.reg
	}
	resp := RouterStatuszResponse{
		Role:    "router",
		Cycles:  int(r.cycles.Load()),
		Seq:     seq,
		Shards:  shards,
		Metrics: reg.Snapshot(),
	}
	if r.dl != nil {
		st := r.dl.Status()
		resp.Durability = &st
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
