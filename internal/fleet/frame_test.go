package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/tokenizer"
)

// testCycles tokenizes a deterministic stream into one batch of
// sentences per request body, tweet IDs assigned as the router would.
func testCycles(t *testing.T, n, perReq int) [][]durable.CycleSentence {
	t.Helper()
	var cycles [][]durable.CycleSentence
	id := 0
	for _, body := range streamBodies(n, perReq) {
		var req struct {
			Tweets []string `json:"tweets"`
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		var batch []durable.CycleSentence
		for _, raw := range req.Tweets {
			for si, toks := range tokenizer.SplitSentences(tokenizer.Tokenize(raw)) {
				batch = append(batch, durable.CycleSentence{TweetID: id, SentID: si, Tokens: toks})
			}
			id++
		}
		cycles = append(cycles, batch)
	}
	return cycles
}

// oneShard serves a lone shard replica of the trained pipeline and
// returns it with a client of its own.
func oneShard(t *testing.T, configure func(*core.Globalizer)) (*Shard, *ShardClient) {
	t.Helper()
	h, err := NewHarness(trainedPipeline(t), 1, configure)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h.Shards[0], h.Router.clients[0]
}

// dropConns closes every open frame connection of the shard, as a
// process restart would.
func dropConns(s *Shard) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// TestShardFrameChecks walks every shard-side check that guarded the
// binary HTTP routes and shows it guarding the same op on the frame
// path, with the same typed error on the router's side.
func TestShardFrameChecks(t *testing.T) {
	cycles := testCycles(t, 6, 2)
	commitReq := func(seq uint64) *CommitRequest {
		return &CommitRequest{Seq: seq, Sentences: cycles[seq-1]}
	}

	t.Run("admission", func(t *testing.T) {
		s, c := oneShard(t, nil)
		req := commitReq(1)
		s.SetAdmission(0)
		var ue *ShardUnavailableError
		if _, err := c.Commit(req); !errors.As(err, &ue) || ue.RetryAfter != shardRetryAfterSeconds {
			t.Fatalf("commit on a saturated shard: %v, want unavailable with retry-after %d", err, shardRetryAfterSeconds)
		}
		// The fan-ins were never admission-gated, and a refusal leaves the
		// connection usable.
		if _, err := c.Entities(); err != nil {
			t.Fatalf("entities on a saturated shard: %v", err)
		}
		s.SetAdmission(defaultShardAdmission)
		if _, err := c.Commit(req); err != nil {
			t.Fatalf("commit after readmission: %v", err)
		}
		if open, _ := c.transportStatus(); open != 1 {
			t.Fatalf("%d connections open after sequential calls, want the one reused", open)
		}
	})

	t.Run("seq gate", func(t *testing.T) {
		s, c := oneShard(t, nil)
		first, second := commitReq(1), commitReq(2)
		var ce *ShardConflictError
		if _, err := c.Commit(second); !errors.As(err, &ce) || !strings.Contains(ce.Detail, "have 0, got 2") {
			t.Fatalf("commit 2 on an empty shard: %v, want an out-of-order conflict", err)
		}
		want, err := c.Commit(first)
		if err != nil {
			t.Fatal(err)
		}
		again, err := c.Commit(first)
		if err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("replay of commit 1: %+v (%v), want the cached %+v", again, err, want)
		}
		if st := s.Status(); st.Seq != 1 || st.StreamSize != want.StreamSize {
			t.Fatalf("replay moved the shard to seq %d, stream %d", st.Seq, st.StreamSize)
		}
		if _, err := c.Commit(second); err != nil {
			t.Fatalf("commit 2 in order: %v", err)
		}
		if _, err := c.Commit(first); !errors.As(err, &ce) {
			t.Fatalf("stale commit 1 at seq 2: %v, want a conflict", err)
		}
	})

	t.Run("body cap and bad bodies", func(t *testing.T) {
		_, c := oneShard(t, nil)
		// A body the decoder refuses is a 400 and the connection lives on.
		_, err := c.call(opCommit, "commit", []byte{1, 2, 3})
		if err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Fatalf("garbage commit body: %v, want status 400", err)
		}
		if _, err := c.Candidates(); err != nil {
			t.Fatal(err)
		}
		if open, _ := c.transportStatus(); open != 1 {
			t.Fatalf("%d connections open, want the one reused after a 400", open)
		}
		// The client refuses to send past the cap ...
		if _, err := c.call(opCommit, "commit", make([]byte, shardMaxBodyBytes+1)); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("oversized body: %v, want a refusal before the wire", err)
		}
		// ... and a peer that claims more anyway is answered 400 from the
		// header alone, then hung up on.
		fc, err := c.dial(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.closeConn(fc)
		var hdr [requestHeaderLen]byte
		putRequestHeader(&hdr, opCommit, shardMaxBodyBytes+1)
		if _, err := fc.nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		status, _, msg, err := readReplyFrame(fc.br)
		if err != nil || status != statusBadRequest || !strings.Contains(string(msg), "exceeds") {
			t.Fatalf("oversized header: status %d %q (%v), want a 400 naming the cap", status, msg, err)
		}
		if _, err := fc.br.ReadByte(); err != io.EOF {
			t.Fatalf("after an oversized header the shard kept the connection: %v", err)
		}
	})

	// A frame that decodes cleanly and repeats a sentence key is a 400,
	// never reaches the engine, and the connection and the shard carry on
	// — the untouched commit still applies as cycle 1.
	t.Run("malformed commits", func(t *testing.T) {
		s, c := oneShard(t, nil)
		valid := commitReq(1)
		if _, err := c.Commit(repeatedKeyCommit(valid)); err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Fatalf("a commit repeating a sentence key: %v, want status 400", err)
		}
		if st := s.Status(); st.Seq != 0 || st.StreamSize != 0 {
			t.Fatalf("the refused commit moved the shard to seq %d, stream %d", st.Seq, st.StreamSize)
		}
		if _, err := c.Commit(valid); err != nil {
			t.Fatalf("the valid commit after the refusal: %v", err)
		}
		if open, _ := c.transportStatus(); open != 1 {
			t.Fatalf("%d connections open, want the one reused after the 400", open)
		}
	})

	t.Run("unready gate", func(t *testing.T) {
		s, c := oneShard(t, nil)
		req := commitReq(1)
		var ue *ShardUnavailableError
		warm := make(chan struct{})
		s.gate.Recover(func() error { <-warm; return nil })
		if _, err := c.Commit(req); !errors.As(err, &ue) {
			t.Fatalf("commit while replaying: %v, want unavailable", err)
		}
		close(warm)
		if err := s.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(req); err != nil {
			t.Fatalf("commit once ready: %v", err)
		}
		s.gate.Trip()
		if _, err := c.Commit(req); !errors.As(err, &ue) {
			t.Fatalf("commit on a bricked shard: %v, want unavailable", err)
		}
	})

	t.Run("durability failure", func(t *testing.T) {
		s, c := oneShard(t, nil)
		dir := filepath.Join(t.TempDir(), "shard")
		if err := s.StartDurable(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		req := commitReq(1)
		// The first append has to create its segment; without the
		// directory it cannot.
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		_, err := c.Commit(req)
		if err == nil || !strings.Contains(err.Error(), "status 500: durability failure") {
			t.Fatalf("commit on a lost data dir: %v, want status 500 durability failure", err)
		}
		var ue *ShardUnavailableError
		if _, err := c.Commit(commitReq(2)); !errors.As(err, &ue) {
			t.Fatalf("commit after a durability failure: %v, want the shard to stay bricked", err)
		}
		if err := c.Reset(); err == nil {
			t.Fatal("reset accepted on a durable shard")
		}
	})

	t.Run("upgrade required", func(t *testing.T) {
		s, c := oneShard(t, nil)
		resp, err := http.Get(c.BaseURL() + "/shard/rpc")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired {
			t.Fatalf("plain GET /shard/rpc: status %d, want 426", resp.StatusCode)
		}
		// The binary HTTP routes are gone, not shadowed.
		for _, path := range []string{"/shard/tag", "/shard/commit", "/shard/reset", "/shard/candidates", "/shard/entities"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", path, rec.Code)
			}
		}
	})
}

// holdEngine takes the shard replica's engine lock — where a commit
// spends its whole cycle — and returns its release.
func holdEngine(s *Shard) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	go s.rep.View(func(*core.Globalizer) {
		close(held)
		<-done
	})
	<-held
	return func() { close(done) }
}

// TestShardRefusesParentFrames sends a shard what a router of a build
// that shipped tag results sends: a commit body carrying tag results
// and a mode slot, and a frame with op 1, the tag RPC. Each is answered
// 400 and leaves the shard's seq where it was.
func TestShardRefusesParentFrames(t *testing.T) {
	s, c := oneShard(t, nil)
	req := &CommitRequest{Seq: 1, Sentences: testCycles(t, 2, 2)[0]}
	if _, err := c.CommitEncoded(parentCommitBody(req)); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("a parent-build commit body: %v, want status 400", err)
	}
	if st := s.Status(); st.Seq != 0 || st.StreamSize != 0 {
		t.Fatalf("a parent-build commit body moved the shard to seq %d, stream %d", st.Seq, st.StreamSize)
	}

	fc, err := c.dial(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.closeConn(fc)
	if _, err := fc.nc.Write(requestFrame(opRetiredTag, req.encode())); err != nil {
		t.Fatal(err)
	}
	status, _, msg, err := readReplyFrame(fc.br)
	if err != nil || status != statusBadRequest || !strings.Contains(string(msg), "unknown frame op 1") {
		t.Fatalf("an op-1 frame: status %d %q (%v), want a 400 naming the op", status, msg, err)
	}
	if _, err := fc.br.ReadByte(); err != io.EOF {
		t.Fatalf("after an op-1 frame the shard kept the connection: %v", err)
	}
	if st := s.Status(); st.Seq != 0 || st.StreamSize != 0 {
		t.Fatalf("an op-1 frame moved the shard to seq %d, stream %d", st.Seq, st.StreamSize)
	}

	// The commit itself, in this build's layout, applies as cycle 1.
	if _, err := c.Commit(req); err != nil {
		t.Fatalf("the commit after the refusals: %v", err)
	}
	if st := s.Status(); st.Seq != 1 {
		t.Fatalf("shard at seq %d after the commit, want 1", st.Seq)
	}
}

// TestShardIdleDeadline checks the shard hangs up a connection that
// sits idle past its deadline and the client's next call redials
// instead of failing.
func TestShardIdleDeadline(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg := obs.NewRegistry()
	h.Router.SetObserver(reg)
	s, c := h.Shards[0], h.Router.clients[0]
	s.idleWait = 20 * time.Millisecond
	if _, err := c.Candidates(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.connMu.Lock()
		n := len(s.conns)
		s.connMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection still open after 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Candidates(); err != nil {
		t.Fatalf("call after the shard closed the idle connection: %v", err)
	}
	if n := reg.Counter("ner_fleet_rpc_redials_total", "").Value(); n != 1 {
		t.Fatalf("redials = %d, want 1", n)
	}
	if n := reg.Counter("ner_fleet_connections_dialed_total", "").Value(); n != 2 {
		t.Fatalf("connections dialed = %d, want 2", n)
	}
}

// TestFleetLateReplyNotMisdelivered stalls one shard's commit past the
// router's RPC timeout and then lets it finish. The cycle degrades; the
// late reply dies with its connection instead of waiting in a kept
// socket for the next call; the next request gets its own answer; and
// the stalled commit, retried from the pending FIFO, is answered from
// the shard's cache — applied exactly once. On a durable fleet
// snapshotting every cycle, the snapshot the stalled commit captured
// still reaches the log although nobody read its reply.
func TestFleetLateReplyNotMisdelivered(t *testing.T) {
	for _, dur := range []bool{false, true} {
		name := "plain"
		if dur {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { lateReplyNotMisdelivered(t, dur) })
	}
}

func lateReplyNotMisdelivered(t *testing.T, dur bool) {
	g := trainedPipeline(t)
	bodies := streamBodies(12, 2)
	want, wantCands, wantEnts := runSingle(t, g, bodies)

	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg, sreg := obs.NewRegistry(), obs.NewRegistry()
	h.Router.SetObserver(reg)
	h.Shards[1].SetObserver(sreg)
	dir := t.TempDir()
	if dur {
		if err := h.StartDurable(dir, durable.Options{SnapshotEvery: 1}); err != nil {
			t.Fatal(err)
		}
	}
	h.Router.SetRPCTimeout(300 * time.Millisecond)

	for i, body := range bodies[:2] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK || resp != want[i] {
			t.Fatalf("warm-up %d: status %d: %s", i, status, resp)
		}
	}

	// Shard 1's commit blocks on the engine lock until the router has
	// given up on it.
	release := holdEngine(h.Shards[1])
	status, resp, hdr := postBody(t, h.URL()+"/annotate", bodies[2])
	release()
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("stalled cycle: status %d (%s), want 503 with Retry-After", status, resp)
	}

	for i := 3; i < len(bodies); i++ {
		status, resp, _ := postBody(t, h.URL()+"/annotate", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("request %d after the stall: status %d: %s", i, status, resp)
		}
		if resp != want[i] {
			t.Fatalf("request %d after the stall got another call's answer\nfleet:  %s\nsingle: %s", i, resp, want[i])
		}
	}
	if cands := getBody(t, h.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates differ\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities differ\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}

	if n := reg.Counter("ner_fleet_degraded_cycles_total", "").Value(); n != 1 {
		t.Fatalf("degraded cycles = %d, want 1", n)
	}
	// commitSeconds is observed once per applied commit, never for a
	// cached replay: one per cycle means the stalled commit applied once.
	if n := sreg.Histogram("ner_fleet_shard_commit_seconds", "", nil).Count(); n != int64(len(bodies)) {
		t.Fatalf("shard 1 applied %d commits over %d cycles", n, len(bodies))
	}
	if st := h.Shards[1].Status(); st.Seq != uint64(len(bodies)) {
		t.Fatalf("shard 1 at seq %d, want %d", st.Seq, len(bodies))
	}
	var st RouterStatuszResponse
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards[1].Pending != 0 {
		t.Fatalf("shard 1 still has %d pending commits", st.Shards[1].Pending)
	}
	if dur {
		// Snapshots kept landing after the stalled cycle.
		shardsIdle(t, h)
		snaps, err := filepath.Glob(filepath.Join(dir, "shard-1", "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("shard 1 snapshots: %v, %v", snaps, err)
		}
		sort.Strings(snaps)
		if newest := filepath.Base(snaps[len(snaps)-1]); newest <= "snap-00000000000000000003.snap" {
			t.Fatalf("shard 1's newest snapshot is %s: none landed after the stalled cycle 3", newest)
		}
	}
}

// TestShardSubmitsSnapshotWhenReplyFails commits on a durable shard
// snapshotting every cycle, over a connection whose peer is gone by the
// time the reply is written. The snapshot the commit captured must
// still reach the log: a capture that never does holds the snapshot
// schedule for good.
func TestShardSubmitsSnapshotWhenReplyFails(t *testing.T) {
	s, _ := oneShard(t, nil)
	dir := t.TempDir()
	if err := s.StartDurable(dir, durable.Options{SnapshotEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	body := (&CommitRequest{Seq: 1, Sentences: testCycles(t, 2, 2)[0]}).encode()
	// net.Pipe is synchronous: the peer's write returns once the shard
	// has read the frame, and closing it then fails the reply's write.
	peer, conn := net.Pipe()
	go func() {
		peer.Write(requestFrame(opCommit, body))
		peer.Close()
	}()
	s.serveFrames(conn, bufio.NewReader(conn))
	conn.Close()
	if st := s.Status(); st.Seq != 1 {
		t.Fatalf("shard at seq %d after the commit, want 1", st.Seq)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.rep.Durability().SnapshotPending > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the captured snapshot never reached the log")
		}
		time.Sleep(time.Millisecond)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v, want the one of cycle 1", snaps)
	}
}

// TestFleetShardRestartRedials takes a shard's listener and every open
// connection away between two cycles, as a restart of its process
// would, and brings the listener back on the same address: the next
// cycle finds its kept connections dead, redials, and succeeds — no 503,
// no degraded cycle.
func TestFleetShardRestartRedials(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(8, 2)
	want, _, wantEnts := runSingle(t, g, bodies)

	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg := obs.NewRegistry()
	h.Router.SetObserver(reg)

	feed := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			status, resp, _ := postBody(t, h.URL()+"/annotate", bodies[i])
			if status != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, status, resp)
			}
			if resp != want[i] {
				t.Fatalf("request %d differs from single-process\nfleet:  %s\nsingle: %s", i, resp, want[i])
			}
		}
	}
	feed(0, 2)

	addr := h.servers[1].Listener.Addr().String()
	h.servers[1].Close()
	dropConns(h.Shards[1])
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(h.Shards[1].Handler())
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	h.servers[1] = srv

	feed(2, len(bodies))
	if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities differ\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if n := reg.Counter("ner_fleet_rpc_redials_total", "").Value(); n == 0 {
		t.Fatal("no call redialed after the shard's connections were dropped")
	}
	if n := reg.Counter("ner_fleet_degraded_cycles_total", "").Value(); n != 0 {
		t.Fatalf("degraded cycles = %d, want 0", n)
	}
	if n := reg.Counter("ner_http_rejected_total", "").Value(); n != 0 {
		t.Fatalf("rejected requests = %d, want 0", n)
	}
}

// TestFleetTransportVisible checks the router's view of its frame
// connections: byte counters per shard on the registry, open
// connections and bytes per commit on /statusz, and the shard's request
// counter counting frames.
func TestFleetTransportVisible(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg, sreg := obs.NewRegistry(), obs.NewRegistry()
	h.Router.SetObserver(reg)
	h.Shards[0].SetObserver(sreg)
	bodies := streamBodies(8, 2)
	for i, body := range bodies {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
	}
	var st RouterStatuszResponse
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.Shards {
		if sh.OpenConns < 1 || sh.OpenConns > 4 {
			t.Fatalf("shard %d: %d open connections, want 1..4", i, sh.OpenConns)
		}
		if sh.BytesPerCommit <= requestHeaderLen {
			t.Fatalf("shard %d: %.0f bytes per commit", i, sh.BytesPerCommit)
		}
	}
	if st.Shards[0].BytesPerCommit != st.Shards[1].BytesPerCommit {
		t.Fatalf("shards received different commit bytes: %.1f vs %.1f", st.Shards[0].BytesPerCommit, st.Shards[1].BytesPerCommit)
	}
	for _, name := range []string{
		"ner_fleet_shard0_rpc_bytes_sent_total", "ner_fleet_shard0_rpc_bytes_received_total",
		"ner_fleet_shard1_rpc_bytes_sent_total", "ner_fleet_shard1_rpc_bytes_received_total",
		"ner_fleet_connections_dialed_total",
	} {
		if st.Metrics.Counters[name] <= 0 {
			t.Fatalf("%s = %d after %d cycles", name, st.Metrics.Counters[name], len(bodies))
		}
	}
	sent := float64(st.Metrics.Counters["ner_fleet_shard0_rpc_bytes_sent_total"])
	if commits := st.Shards[0].BytesPerCommit * float64(len(bodies)); sent < commits {
		t.Fatalf("shard 0: %.0f bytes sent in all, less than the %.0f of its commit frames", sent, commits)
	}
	// The front's series: an operator of a fleet reads end-to-end latency
	// and micro-batch shape off the router, as off the single server.
	for _, name := range []string{"ner_http_annotate_seconds", "ner_batch_jobs_per_cycle"} {
		if n := st.Metrics.Histograms[name].Count; n != int64(len(bodies)) {
			t.Fatalf("%s counted %d observations over %d sequential requests", name, n, len(bodies))
		}
	}
	if _, ok := st.Metrics.Gauges["ner_jobs_queue_depth"]; !ok {
		t.Fatal("router registry carries no ner_jobs_queue_depth")
	}
	if !strings.Contains(getBody(t, h.URL()+"/metrics"), "ner_http_annotate_seconds_count "+strconv.Itoa(len(bodies))) {
		t.Fatal("router /metrics does not expose ner_http_annotate_seconds")
	}
	if n := st.Metrics.Counters["ner_fleet_rpc_redials_total"]; n != 0 {
		t.Fatalf("redials = %d on a healthy fleet", n)
	}
	// One commit frame per cycle, and the HTTP requests (upgrades,
	// /statusz) on top.
	if n := sreg.Counter("ner_fleet_shard_requests_total", "").Value(); n < int64(len(bodies)) {
		t.Fatalf("shard 0 counted %d requests over %d cycles: frames are not counted", n, len(bodies))
	}
}

// TestShardRefusesParentLastResp feeds recovery a real shard directory
// written by the build before frames, whose snapshot carries LastResp
// wrapped in a gob stream: it must be refused with an error naming the
// field, before the engine is touched — never mis-decoded.
func TestShardRefusesParentLastResp(t *testing.T) {
	dir := copyTestdata(t, "testdata/parent_shard/*")
	// The payload really is the parent's: a gob stream, not a bare body.
	l, rec, err := durable.Open(dir, durable.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.Snapshot == nil || len(rec.Snapshot.LastResp) == 0 {
		t.Fatal("parent shard dir holds no snapshot with a LastResp")
	}
	if !bytes.Contains(rec.Snapshot.LastResp, []byte("\x07TweetID")) {
		t.Fatalf("parent LastResp carries no gob type descriptor (a length-prefixed field name): % x", rec.Snapshot.LastResp)
	}

	s, _ := oneShard(t, nil)
	if err := s.StartDurable(dir, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	err = s.WaitWarm()
	if err == nil || !strings.Contains(err.Error(), "LastResp") {
		t.Fatalf("recovery of a parent-format shard dir: %v, want a refusal naming LastResp", err)
	}
	if st := s.Status(); st.Seq != 0 || st.StreamSize != 0 {
		t.Fatalf("refused recovery left the shard at seq %d with %d sentences", st.Seq, st.StreamSize)
	}
	if why, _ := s.gate.Unready(); why == "" {
		t.Fatal("shard serves after a refused recovery")
	}
}
