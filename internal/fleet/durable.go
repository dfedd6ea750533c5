package fleet

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/server"
)

// Fleet durability splits along the ownership contract:
//
//   - Each shard owns a WAL + snapshot of its replica and a Merkle
//     provenance chain over its OWNED annotations — the bytes it put on
//     the wire. A commit is acked only after the shard's WAL append, so
//     the router's view of what a shard has committed (its ack) never
//     runs ahead of the shard's disk.
//   - The router journals intent records (seq + batch sentences, no
//     annotations — it never computes any) BEFORE the commit fan-out.
//     Shards can therefore never be ahead of the journal, and a router
//     restart re-drives any shard that lags the journaled seq by
//     committing the logged batches to it in order, as the live cycle
//     did; the shard seq gate makes the re-drive exactly-once.
//   - The router snapshots only at cycles every shard has acked, so the
//     journal tail past the latest snapshot always contains every
//     record a lagging shard could need. That snapshot is the cycle
//     cursor and nothing else — the router holds no stream — so its
//     only job is to let the journal behind it be compacted.

// replayRetryInterval paces the router's recovery polling of shards
// that are themselves still replaying.
const replayRetryInterval = 200 * time.Millisecond

// replayDeadline bounds how long router recovery waits for one shard.
const replayDeadline = 2 * time.Minute

// ---------------------------------------------------------------------
// Shard durability
// ---------------------------------------------------------------------

// StartDurable opens the shard's data directory and begins recovery.
// Call once, after NewShard and SetObserver but before serving.
// Mutating RPCs answer 503 until recovery finishes; WaitWarm blocks on
// it.
func (s *Shard) StartDurable(dir string, opts durable.Options) error {
	rec, err := s.rep.Open(dir, opts, s.registry())
	if err != nil {
		return err
	}
	s.gate.Recover(func() error { return s.recoverFrom(rec) })
	return nil
}

// WaitWarm blocks until shard recovery completes and returns its error.
func (s *Shard) WaitWarm() error { return s.gate.WaitWarm() }

// Close ends the shard's frame connections (waiting for calls in
// flight on them), waits out recovery and seals the shard's WAL.
func (s *Shard) Close() {
	s.connMu.Lock()
	conns := s.conns
	s.conns = nil
	s.connMu.Unlock()
	for c := range conns {
		c.Close()
	}
	s.connWG.Wait()
	s.gate.WaitWarm()
	s.rep.Close()
}

// recoverFrom has the replica restore its snapshot and re-execute the
// WAL tail by self-tagging each logged batch — byte-identical to the
// original commits, which tagged it the same way — and restores
// the cached last response: the snapshot's, or the last replayed
// cycle's.
func (s *Shard) recoverFrom(rec *durable.Recovery) error {
	var lastResp *CommitResponse
	// LastResp is a bare commit-response body. Decode it before touching
	// the engine: a directory from a build that wrapped it in a gob
	// stream is refused here, never half restored.
	if snap := rec.Snapshot; snap != nil && len(snap.LastResp) > 0 {
		lastResp = &CommitResponse{}
		if err := lastResp.decode(snap.LastResp); err != nil {
			return fmt.Errorf("fleet: shard %d: snapshot at seq %d: LastResp is not a commit-response body (data dir written by an incompatible build?): %w", s.index, snap.Seq, err)
		}
		if lastResp.Seq != snap.Seq {
			return fmt.Errorf("fleet: shard %d: snapshot at seq %d: LastResp answers cycle %d", s.index, snap.Seq, lastResp.Seq)
		}
	}
	last, err := s.rep.Replay(rec)
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", s.index, err)
	}
	if last.Seq != 0 {
		lastResp = commitResponse(last)
	}
	s.mu.Lock()
	s.lastResp = lastResp
	s.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------
// Router durability
// ---------------------------------------------------------------------

// StartDurable opens the router's journal directory and begins
// recovery: restore the cycle cursor (seq and next tweet ID), then
// re-drive any shard whose committed seq lags the journal. Call once,
// after NewRouter and SetObserver but before serving.
func (r *Router) StartDurable(dir string, opts durable.Options) error {
	dl, rec, err := durable.Open(dir, opts, r.front.Registry())
	if err != nil {
		return err
	}
	r.dl = dl
	r.front.Gate.Recover(func() error { return r.recoverFrom(rec) })
	return nil
}

// WaitWarm blocks until router recovery (including shard re-driving)
// completes and returns its error.
func (r *Router) WaitWarm() error { return r.front.Gate.WaitWarm() }

// recoverFrom restores the router's cursor and reconciles the fleet.
func (r *Router) recoverFrom(rec *durable.Recovery) error {
	t0 := time.Now()
	snap := rec.Snapshot
	if snap != nil && snap.Kind != durable.KindRouter {
		return fmt.Errorf("fleet: router data dir was written by process kind %d, not a router", snap.Kind)
	}
	bySeq := make(map[uint64]*durable.CycleRecord, len(rec.Tail))
	r.mu.Lock()
	if snap != nil {
		r.seq = snap.Seq
	}
	r.nextID = rec.NextID()
	for _, cr := range rec.Tail {
		bySeq[cr.Seq] = cr
		r.seq = cr.Seq
	}
	target := r.seq
	r.cycles.Store(int64(target))
	r.mu.Unlock()

	// Re-drive: every shard must reach the journaled seq. Shards are
	// never ahead (the journal is appended before the fan-out); a shard
	// behind gets the missing cycles committed in order.
	for i := range r.clients {
		if err := r.redriveShard(i, target, bySeq); err != nil {
			return err
		}
	}
	r.dl.ObserveReplay(len(rec.Tail), time.Since(t0))
	return nil
}

// redriveShard brings shard i up to the journaled seq.
func (r *Router) redriveShard(i int, target uint64, bySeq map[uint64]*durable.CycleRecord) error {
	deadline := time.Now().Add(replayDeadline)
	var st ShardStatus
	var err error
	for {
		// A shard still replaying answers /statusz with the seq it has
		// reached so far; only a warm shard's seq says what it is missing.
		if err = r.clients[i].Ready(); err == nil {
			st, err = r.clients[i].Status()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: router recovery: shard %d unreachable: %w", i, err)
		}
		time.Sleep(replayRetryInterval)
	}
	if st.Seq > target {
		return fmt.Errorf("fleet: router recovery: shard %d is at seq %d, ahead of the journal's %d — journal lost records", i, st.Seq, target)
	}
	for seq := st.Seq + 1; seq <= target; seq++ {
		cr, ok := bySeq[seq]
		if !ok {
			return fmt.Errorf("fleet: router recovery: shard %d needs cycle %d but the journal starts later — compaction outran the shard", i, seq)
		}
		req := &CommitRequest{Seq: seq, Sentences: cr.Sentences}
		for {
			_, err = r.clients[i].Commit(req)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet: router recovery: re-drive cycle %d to shard %d: %w", seq, i, err)
			}
			time.Sleep(replayRetryInterval)
		}
	}
	return nil
}

// journalCycle appends the intent record for a freshly ingested cycle —
// called before the commit fan-out, so the journal always covers
// everything any shard may have applied. A failure bricks the router.
func (r *Router) journalCycle(seq uint64, batch []durable.CycleSentence) error {
	rec := &durable.CycleRecord{
		Seq:       seq,
		Mode:      int(core.ModeFull),
		Sentences: batch,
	}
	if err := r.dl.Append(rec); err != nil {
		r.front.Gate.Trip()
		return err
	}
	return nil
}

// maybeSnapshot returns the router snapshot of the cycle that just
// committed — its seq and the ID cursor as that cycle left it — when the
// schedule calls for one AND every shard has acked through seq (all
// pending queues empty — guaranteed when the cycle committed
// everywhere), so compaction can never outrun a lagging shard. Returns
// nil when not due. Both values are the cycle's own, so what the
// scheduler has meanwhile prepared for the next cycle cannot leak in.
func (r *Router) maybeSnapshot(seq uint64, nextID int) *durable.Snapshot {
	if !r.dl.ShouldSnapshot(seq) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.pending {
		if len(r.pending[i]) > 0 {
			return nil
		}
	}
	return &durable.Snapshot{Kind: durable.KindRouter, Seq: seq, NextID: nextID}
}

// handleProof fans GET /proof?tweet=N out to every shard and returns
// the per-shard bundles as one array — each shard proves its own owned
// annotations on its own chain, and cmd/nerprove verifies each bundle
// independently.
func (r *Router) handleProof(w http.ResponseWriter, req *http.Request) {
	if r.front.Gate.Reject(w) {
		return
	}
	tweet, err := strconv.Atoi(req.URL.Query().Get("tweet"))
	if err != nil {
		http.Error(w, "tweet query parameter required", http.StatusBadRequest)
		return
	}
	bundles := []*durable.ProofBundle{}
	for i := range r.clients {
		b, found, err := r.clients[i].Proof(tweet)
		if err != nil {
			http.Error(w, "proof fan-in: "+err.Error(), http.StatusBadGateway)
			return
		}
		if found {
			bundles = append(bundles, b)
		}
	}
	if len(bundles) == 0 {
		http.Error(w, "tweet not in the annotated stream (or shards run without -data-dir)", http.StatusNotFound)
		return
	}
	server.WriteJSON(w, bundles)
}
