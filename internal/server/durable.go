package server

import (
	"net/http"
	"strconv"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
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
	s.acks = make(chan *cycleAck, ackQueueDepth)
	s.ackerDone = make(chan struct{})
	go s.acker()
	s.front.Gate.Recover(func() error { return s.recoverFrom(rec) })
	return nil
}

// WaitWarm blocks until startup recovery completes and returns its
// error, if any. Without StartDurable it returns immediately.
func (s *Server) WaitWarm() error { return s.front.Gate.WaitWarm() }

// recoverFrom restores the snapshot and re-executes the WAL tail.
func (s *Server) recoverFrom(rec *durable.Recovery) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := rec.Snapshot; snap != nil {
		s.nextID = snap.NextID
		s.cycles.Store(int64(snap.Seq))
	}
	prov, err := s.dl.Resume(rec, durable.KindSingle, s.g, func(cr *durable.CycleRecord) []durable.SentenceAnnotation {
		batch := durable.ToSentences(cr.Sentences)
		for _, sent := range batch {
			if sent.TweetID >= s.nextID {
				s.nextID = sent.TweetID + 1
			}
		}
		s.cycles.Store(int64(cr.Seq))
		return durable.RenderAnnotations(batch, s.g.ProcessBatchEntities(batch, core.Mode(cr.Mode)))
	})
	if err != nil {
		return err
	}
	s.prov = prov
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

// handleProof serves Merkle inclusion proofs: GET /proof?tweet=N
// returns an array with one proof bundle covering every annotated
// sentence of the tweet, verifiable offline by cmd/nerprove.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	if s.dl == nil {
		http.Error(w, "provenance requires -data-dir", http.StatusNotFound)
		return
	}
	if s.front.Gate.Reject(w) {
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
	WriteJSON(w, []*durable.ProofBundle{b})
}
