package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/types"
)

// Durability wiring for the single-process server.
//
// With StartDurable enabled, every execution cycle is appended to the
// WAL before its jobs are answered (ack-after-durable: a 200 means the
// cycle survives kill -9 under -fsync always) and folded into the
// Merkle provenance chain. Snapshots run on the cycle schedule, written
// off the scheduler's lock: only the in-memory capture happens inside
// the serial section, and it is a delta — proportional to what changed
// since the previous snapshot — except when a base is due.
//
// Startup recovery is asynchronous so /healthz can report the replay in
// progress (503 "replaying") while the engine restores the snapshot and
// re-executes the WAL tail. Replayed cycles are verified against the
// logged annotations — a divergence means this process is not running
// the configuration that wrote the log, and recovery fails rather than
// serving a silently different stream.

// StartDurable opens (or creates) the data directory and begins
// recovery. Call once, after New and SetObserver but before serving
// traffic. Mutating endpoints answer 503 until recovery finishes; use
// WaitWarm to block on it.
func (s *Server) StartDurable(dir string, opts durable.Options) error {
	dl, rec, err := durable.Open(dir, opts, s.Observer())
	if err != nil {
		return err
	}
	s.dl = dl
	s.prov = durable.NewProvenance()
	s.acks = make(chan *cycleAck, ackQueueDepth)
	s.ackerDone = make(chan struct{})
	go s.acker()
	s.replayDone = make(chan struct{})
	s.replaying.Store(true)
	go func() {
		defer close(s.replayDone)
		defer s.replaying.Store(false)
		if err := s.recoverFrom(rec); err != nil {
			s.recoverErr = err
			s.broken.Store(true)
		}
	}()
	return nil
}

// WaitWarm blocks until startup recovery completes and returns its
// error, if any. Without StartDurable it returns immediately.
func (s *Server) WaitWarm() error {
	if s.replayDone == nil {
		return nil
	}
	<-s.replayDone
	return s.recoverErr
}

// recoverFrom restores the snapshot and re-executes the WAL tail.
func (s *Server) recoverFrom(rec *durable.Recovery) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := rec.Snapshot; snap != nil {
		if snap.Kind != durable.KindSingle {
			return fmt.Errorf("server: data dir was written by process kind %d, not a single server", snap.Kind)
		}
		if snap.Warm == nil {
			return fmt.Errorf("server: snapshot at seq %d has no engine state", snap.Seq)
		}
		if err := s.g.RestoreWarmState(snap.Warm); err != nil {
			return err
		}
		s.nextID = snap.NextID
		s.cycles.Store(int64(snap.Seq))
		s.prov = durable.RestoreProvenance(snap.Provenance)
		s.sentences = make(map[types.SentenceKey]*types.Sentence, len(snap.Warm.Records))
		for _, rec := range snap.Warm.Records {
			sent := &types.Sentence{TweetID: rec.TweetID, SentID: rec.SentID, Tokens: rec.Tokens, Gold: rec.Gold}
			s.sentences[sent.Key()] = sent
		}
	}
	for _, cr := range rec.Tail {
		batch := durable.ToSentences(cr.Sentences)
		for _, sent := range batch {
			s.sentences[sent.Key()] = sent
			if sent.TweetID >= s.nextID {
				s.nextID = sent.TweetID + 1
			}
		}
		final := s.g.ProcessBatchEntities(batch, core.Mode(cr.Mode))
		got := durable.RenderAnnotations(batch, final)
		if !durable.AnnotationsEqual(got, cr.Annotations) {
			return fmt.Errorf("server: replay of cycle %d diverged from the logged annotations — model or configuration mismatch", cr.Seq)
		}
		s.prov.AppendCycle(cr.Seq, cr.Annotations)
		s.cycles.Store(int64(cr.Seq))
	}
	s.dl.ObserveReplay(len(rec.Tail), time.Since(t0))
	return nil
}

// durableCommit is the runCycle tail when durability is on: called
// under s.mu after the engine processed the batch. It folds the cycle
// into the provenance chain and, when the schedule calls for it,
// captures a snapshot — a delta on the newest landed one whenever the
// log's chain rule allows. The WAL append itself happens after unlock.
func (s *Server) durableCommit(seq uint64, rec *durable.CycleRecord) *durable.Snapshot {
	s.prov.AppendCycle(seq, rec.Annotations)
	if !s.dl.ShouldSnapshot(seq) {
		return nil
	}
	snap := s.dl.EngineSnapshot(durable.KindSingle, seq, s.g, s.prov)
	snap.NextID = s.nextID
	return snap
}

// handleHealthz reports readiness: 503 while startup recovery is
// replaying (so load balancers keep routing elsewhere), 503 when the
// durability layer failed sticky, 200 "ok" once warm.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.replaying.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"replaying\"}\n"))
		return
	}
	if s.broken.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"durability_failed\"}\n"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// rejectUnready answers 503 when the server cannot accept mutations
// (recovery in progress, or the durability layer failed) and reports
// whether it did.
func (s *Server) rejectUnready(w http.ResponseWriter) bool {
	if s.replaying.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, "replaying snapshot and WAL", http.StatusServiceUnavailable)
		return true
	}
	if s.broken.Load() {
		http.Error(w, "durability layer failed; restart from the data dir", http.StatusServiceUnavailable)
		return true
	}
	return false
}

// handleProof serves Merkle inclusion proofs: GET /proof?tweet=N
// returns an array with one proof bundle covering every annotated
// sentence of the tweet, verifiable offline by cmd/nerprove.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if s.dl == nil {
		http.Error(w, "provenance requires -data-dir", http.StatusNotFound)
		return
	}
	if s.rejectUnready(w) {
		return
	}
	tweet, err := strconv.Atoi(r.URL.Query().Get("tweet"))
	if err != nil {
		http.Error(w, "tweet query parameter required", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	b, ok := s.prov.BundleForTweet(tweet, -1)
	s.mu.Unlock()
	if !ok {
		http.Error(w, "tweet not in the annotated stream", http.StatusNotFound)
		return
	}
	s.dl.ProofServed()
	writeJSON(w, []*durable.ProofBundle{b})
}
