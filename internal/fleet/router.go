package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
)

// cycleRetryAfterSeconds is the Retry-After hint on a refused or
// degraded cycle: the next cycle retries the lagging shard.
const cycleRetryAfterSeconds = 1

// maxPendingCommits bounds the per-shard queue of commits a degraded
// shard has missed. When a shard is down long enough to hit the bound
// the router stops ingesting (503) rather than growing memory without
// limit — replicas stay reconcilable and the operator gets back
// pressure instead of an OOM.
const maxPendingCommits = 64

// commitQueueDepth is the front's tail depth under the router: one
// commit fan-out running plus one queued. Deeper would only let tagging
// run further ahead of shards that are the bottleneck either way.
const commitQueueDepth = 1

// Router is the fleet's stateless front: behind the serving front it
// shares with the single server (admission, tokenization, the cycle
// schedule) it owns tweet ID assignment and the fleet cycle, fanning
// tag and commit RPCs to the shards and merging their owned annotations
// back into request order. "Stateless" means no model and no stream:
// the router keeps a cursor (cycle seq, next tweet ID) and the commits
// a lagging shard has yet to take, bounded by maxPendingCommits —
// nothing that grows with the tweets served. The surface every entity
// is rendered with is the one its shard shipped.
type Router struct {
	clients []*ShardClient
	// front owns admission, the scheduler that calls runCycle, the
	// readiness gate and the HTTP plumbing — the single server's, shared.
	front *server.Front

	mu     sync.Mutex
	nextID int
	seq    uint64
	// pending holds, per shard, commits the shard has missed (oldest
	// first). They drain in seq order before the shard takes new ones.
	pending [][]*CommitRequest

	// cycles counts the cycles that took a seq.
	cycles atomic.Int64

	statsMu     sync.Mutex
	recordStats bool
	stats       []CycleStat

	o atomic.Pointer[routerObs]

	// dl is the intent journal, appended before every commit fan-out
	// (nil unless StartDurable was called).
	dl *durable.Log
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
		clients: clients,
		pending: make([][]*CommitRequest, len(clients)),
	}
	r.front = server.NewFront(r.runCycle, commitQueueDepth)
	return r
}

// Close stops the scheduler, lets the front's tail finish any commit
// fan-out in flight, and releases the shard connection pools.
func (r *Router) Close() {
	r.front.Close(func() {
		r.front.Gate.WaitWarm()
		if r.dl != nil {
			r.dl.Close()
		}
		for _, c := range r.clients {
			c.Close()
		}
	})
}

// SetObserver attaches a metrics registry to the router.
func (r *Router) SetObserver(reg *obs.Registry) {
	r.front.SetObserver(reg)
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

// Cycles reports how many execution cycles the router has committed to
// the fleet: those that took a seq (a refused cycle takes none), or,
// after a restart, the journal's head.
func (r *Router) Cycles() int { return int(r.cycles.Load()) }

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
//
// 1, 2, taking the seq, journaling it and encoding the commit run here,
// on the scheduler; 3 and 4 are the returned finish (commitCycle), which
// the front's tail runs in cycle order, so shards still see commits
// strictly in seq order while the scheduler moves on to the next cycle's
// tag stage. Tagging is pure (it reads the trained model, never the
// stream), so the overlap cannot change a single byte of any commit.
func (r *Router) runCycle(jobs []*server.Job) (finish func()) {
	cycleStart := time.Now()
	ro := r.o.Load()

	// Admission against pending overflow.
	r.mu.Lock()
	for i := range r.pending {
		if len(r.pending[i]) >= maxPendingCommits {
			r.mu.Unlock()
			r.front.Reject(jobs, http.StatusServiceUnavailable, cycleRetryAfterSeconds,
				fmt.Sprintf("shard %d unreachable, pending commits full", i))
			return nil
		}
	}
	// Tentative ID and seq assignment in queue order; nothing is
	// published until the tag stage succeeds.
	startID, seq := r.nextID, r.seq+1
	r.mu.Unlock()
	batch, perJob, id := server.Batch(jobs, startID)

	// Tag fan-out with failover.
	tagged, tagBusy, tagRPC, err := r.tagPartitioned(batch, int(seq))
	if err != nil {
		r.front.Reject(jobs, http.StatusServiceUnavailable, cycleRetryAfterSeconds,
			"tag stage failed on every shard: "+err.Error())
		return nil
	}

	// The cycle is now ingested: publish its IDs and its seq, count it.
	r.mu.Lock()
	r.seq = seq
	r.nextID = id
	r.mu.Unlock()
	r.cycles.Add(1)
	if ro != nil {
		ro.fleetCycles.Inc()
	}

	// Journal the intent before any shard sees the commit: after a
	// router crash, every cycle a shard may have applied is re-drivable
	// from the journal. The append is a blocking one, waited for here
	// and not on the tail — a shard must never get ahead of the journal's
	// disk, or recovery would find records the journal lost.
	if r.dl != nil {
		if err := r.journalCycle(seq, batch); err != nil {
			r.front.Reject(jobs, http.StatusInternalServerError, 0, "journal failure: "+err.Error())
			return nil
		}
	}

	req := &CommitRequest{
		Seq:       seq,
		Sentences: batch,
		Tagged:    tagged,
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
		r.front.Reject(jobs, http.StatusInternalServerError, 0, encErr.Error())
		return nil
	}

	work := &commitWork{
		jobs: jobs, perJob: perJob,
		req: req, body: body, nextID: id,
		tagBusy: tagBusy, tagRPC: tagRPC,
		cycleStart: cycleStart,
	}
	return func() { r.commitCycle(work) }
}

// commitWork is one prepared cycle awaiting its commit fan-out: the
// jobs to answer, the shared pre-encoded commit body, the cursor as the
// cycle leaves it (what a router snapshot of the cycle records), and
// the tag-stage timings for CycleStat.
type commitWork struct {
	jobs       []*server.Job
	perJob     []int // sentences per job, contiguous in req.Sentences
	req        *CommitRequest
	body       []byte
	nextID     int
	tagBusy    []float64
	tagRPC     []float64
	cycleStart time.Time
}

// commitCycle runs one prepared cycle's commit fan-out, degradation
// handling, merge, and response — stages 3 and 4 of runCycle — on the
// front's tail.
func (r *Router) commitCycle(work *commitWork) {
	jobs, perJob, req := work.jobs, work.perJob, work.req
	ro := r.o.Load()
	k := len(r.clients)
	resps := make([]*CommitResponse, k)
	commitRPC := make([]float64, k)
	errs := make([]error, k)
	r.eachShard(func(i int) { resps[i], commitRPC[i], errs[i] = r.commitShard(i, req, work.body) })

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
		retry := cycleRetryAfterSeconds
		for _, i := range failed {
			var ue *ShardUnavailableError
			if errors.As(errs[i], &ue) && ue.RetryAfter > retry {
				retry = ue.RetryAfter
			}
		}
		r.front.Reject(jobs, http.StatusServiceUnavailable, retry,
			fmt.Sprintf("%d of %d shards degraded this cycle", len(failed), k))
		return
	}

	if r.dl != nil {
		if snap := r.maybeSnapshot(req.Seq, work.nextID); snap != nil {
			r.dl.SubmitSnapshot(snap)
		}
	}

	t0 := time.Now()
	candidates := 0
	owned := make([][]durable.SentenceAnnotation, k)
	for i, resp := range resps {
		candidates += resp.Candidates
		owned[i] = resp.Entities
	}
	server.Answer(jobs, perJob, req.Sentences, mergeAnnotations(owned), resps[0].StreamSize, candidates)
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
// byte-identical. Callers pass the cycle's seq as rot, so the larger
// share of an uneven cut — the whole batch, in a one-sentence cycle —
// moves round the fleet instead of always landing on shard K−1. The
// extra returns are each slice's shard-reported busy time and its
// client-observed RPC round trip, for critical-path accounting.
func (r *Router) tagPartitioned(batch []durable.CycleSentence, rot int) ([]*localner.Result, []float64, []float64, error) {
	k := len(r.clients)
	ro := r.o.Load()
	t0 := time.Now()
	tagged := make([]*localner.Result, len(batch))
	busy := make([]float64, k)
	rpc := make([]float64, k)
	errs := make([]error, k)
	tagSlice := func(i, lo, hi int) {
		req := &TagRequest{Sentences: batch[lo:hi]}
		var resp *TagResponse
		var err error
		st0 := time.Now()
		for attempt := 0; attempt < k; attempt++ {
			shard := (i + rot + attempt) % k
			rt0 := time.Now()
			resp, err = r.clients[shard].Tag(req)
			if err == nil && len(resp.Results) != hi-lo {
				err = fmt.Errorf("fleet: shard %d tagged %d of %d sentences", shard, len(resp.Results), hi-lo)
			}
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

// mergeGroups interleaves per-shard surface groups back into the
// engine's sorted-surface-major order. Each shard's list is already
// grouped by ascending canonical surface, and a surface lives on
// exactly one shard, so a linear k-way group merge reproduces the
// single-process ordering exactly.
func mergeGroups[T any](parts [][]T, surface func(T) string) []T {
	idx := make([]int, len(parts))
	var out []T
	for {
		best := -1
		for s, p := range parts {
			if idx[s] >= len(p) {
				continue
			}
			if best == -1 || surface(p[idx[s]]) < surface(parts[best][idx[best]]) {
				best = s
			}
		}
		if best == -1 {
			return out
		}
		p := parts[best]
		surf := surface(p[idx[best]])
		for idx[best] < len(p) && surface(p[idx[best]]) == surf {
			out = append(out, p[idx[best]])
			idx[best]++
		}
	}
}

// mergeAnnotations merges the shards' owned annotations of the same
// sentences — owned[i] is shard i's list, all index-aligned — into the
// annotations the single server holds for them: each sentence's
// per-shard surface groups, interleaved.
func mergeAnnotations(owned [][]durable.SentenceAnnotation) []durable.SentenceAnnotation {
	out := make([]durable.SentenceAnnotation, len(owned[0]))
	groups := make([][]durable.Entity, len(owned))
	for si := range out {
		for i := range owned {
			groups[i] = owned[i][si].Entities
		}
		out[si] = owned[0][si]
		out[si].Entities = mergeGroups(groups, entitySurface)
	}
	return out
}

func entitySurface(e durable.Entity) string { return e.Surface }

// Handler returns the router's routed HTTP handler. The public
// endpoints (/annotate, /candidates, /entities, /reset) are
// byte-compatible with the single-process server's.
func (r *Router) Handler() http.Handler {
	mux := r.front.Mux()
	mux.HandleFunc("GET /candidates", r.front.Counted(r.handleCandidates))
	mux.HandleFunc("GET /entities", r.front.Counted(r.handleEntities))
	mux.HandleFunc("POST /reset", r.front.Counted(r.handleReset))
	mux.HandleFunc("GET /statusz", r.front.Counted(r.handleStatusz))
	mux.HandleFunc("GET /proof", r.front.Counted(r.handleProof))
	return mux
}

// eachShard runs do(i) for every shard index concurrently and waits.
func (r *Router) eachShard(do func(i int)) {
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
		}(i)
	}
	wg.Wait()
}

// fanIn asks every shard concurrently and returns the answers in shard
// order, or the first error.
func fanIn[T any](r *Router, ask func(*ShardClient) (T, error)) ([]T, error) {
	parts := make([]T, len(r.clients))
	errs := make([]error, len(r.clients))
	r.eachShard(func(i int) { parts[i], errs[i] = ask(r.clients[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// handleCandidates fans the candidates RPC in from every shard and
// k-way merges the disjoint, surface-sorted lists back into the global
// sorted order — byte-identical to the single server's /candidates.
func (r *Router) handleCandidates(w http.ResponseWriter, req *http.Request) {
	parts, err := fanIn(r, (*ShardClient).Candidates)
	if err != nil {
		http.Error(w, "candidate fan-in: "+err.Error(), http.StatusBadGateway)
		return
	}
	merged := mergeGroups(parts, func(c server.Candidate) string { return c.Surface })
	server.WriteJSON(w, server.CandidatesJSON(merged))
}

// handleEntities fans the entities RPC in from every shard and merges
// the whole stream's annotations in insertion order — byte-identical
// to the single server's /entities.
func (r *Router) handleEntities(w http.ResponseWriter, req *http.Request) {
	parts, err := fanIn(r, (*ShardClient).Entities)
	if err != nil {
		http.Error(w, "entity fan-in: "+err.Error(), http.StatusBadGateway)
		return
	}
	for i := 1; i < len(parts); i++ {
		if len(parts[i]) != len(parts[0]) {
			http.Error(w, fmt.Sprintf("entity fan-in: shard stream sizes differ (%d vs %d)",
				len(parts[0]), len(parts[i])), http.StatusBadGateway)
			return
		}
	}
	server.WriteJSON(w, server.EntitiesJSON(mergeAnnotations(parts)))
}

// handleReset clears the whole fleet's stream state: every shard, then
// the router's own counters. It runs on the scheduler between two
// cycles, after the tail's last commit fan-out has landed
// (Front.Exclusive), so no cycle straddles it. Failures leave the fleet
// inconsistent and surface as 502 so the operator retries.
func (r *Router) handleReset(w http.ResponseWriter, req *http.Request) {
	if r.dl != nil {
		http.Error(w, "reset is not supported with -data-dir; wipe the data dirs and restart the fleet", http.StatusConflict)
		return
	}
	var err error
	if !r.front.Exclusive(func() {
		for _, c := range r.clients {
			if err = c.Reset(); err != nil {
				return
			}
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		r.nextID = 0
		r.seq = 0
		r.pending = make([][]*CommitRequest, len(r.clients))
	}) {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, "reset fan-out: "+err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusOK)
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
	shards := make([]RouterShardStatus, len(r.clients))
	r.eachShard(func(i int) {
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
	})
	r.mu.Lock()
	for i := range shards {
		shards[i].Pending = len(r.pending[i])
	}
	seq := r.seq
	r.mu.Unlock()
	resp := RouterStatuszResponse{
		Role:    "router",
		Cycles:  int(r.cycles.Load()),
		Seq:     seq,
		Shards:  shards,
		Metrics: r.front.Registry().Snapshot(),
	}
	if r.dl != nil {
		st := r.dl.Status()
		resp.Durability = &st
	}
	server.WriteJSON(w, resp)
}
