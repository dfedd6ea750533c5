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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
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
	commitReq := func(t *testing.T, c *ShardClient, seq uint64) *CommitRequest {
		t.Helper()
		batch := cycles[seq-1]
		tagged, err := c.Tag(&TagRequest{Sentences: batch})
		if err != nil {
			t.Fatal(err)
		}
		return &CommitRequest{Seq: seq, Sentences: batch, Tagged: tagged.Results}
	}

	t.Run("admission", func(t *testing.T) {
		s, c := oneShard(t, nil)
		req := commitReq(t, c, 1)
		s.SetAdmission(0)
		var ue *ShardUnavailableError
		if _, err := c.Tag(&TagRequest{Sentences: cycles[0]}); !errors.As(err, &ue) || ue.RetryAfter != shardRetryAfterSeconds {
			t.Fatalf("tag on a saturated shard: %v, want unavailable with retry-after %d", err, shardRetryAfterSeconds)
		}
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
		first, second := commitReq(t, c, 1), commitReq(t, c, 2)
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

	// Frames that decode cleanly and disagree with themselves about what
	// the engine's replay indexes: each is a 400, none reaches the engine,
	// and the connection and the shard carry on — the untouched commit
	// still applies as cycle 1.
	t.Run("malformed commits", func(t *testing.T) {
		s, c := oneShard(t, nil)
		valid := commitReq(t, c, 1)
		first := -1 // a tag result with an entity, hence tokens and a matrix
		for i := range valid.Tagged {
			if len(valid.Tagged[i].Entities) > 0 {
				first = i
				break
			}
		}
		if first < 0 {
			t.Fatal("the first cycle tagged no entity: the case needs one to corrupt")
		}
		// A fresh copy as deep as the variations write.
		fresh := func() *CommitRequest {
			q := &CommitRequest{Seq: 1, Sentences: valid.Sentences, Tagged: make([]*localner.Result, len(valid.Tagged))}
			for i, t := range valid.Tagged {
				c := *t
				q.Tagged[i] = &c
			}
			q.Tagged[first].Entities = append([]types.Entity(nil), q.Tagged[first].Entities...)
			return q
		}
		for name, q := range malformedCommits(fresh, first) {
			if _, err := c.Commit(q); err == nil || !strings.Contains(err.Error(), "status 400") {
				t.Fatalf("%s: %v, want status 400", name, err)
			}
		}
		body, err := valid.encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CommitEncoded(withModeSlot(body, core.ModeLocalEmbeddings)); err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Fatalf("ablation mode in the mode slot: %v, want status 400", err)
		}
		if st := s.Status(); st.Seq != 0 || st.StreamSize != 0 {
			t.Fatalf("refused commits moved the shard to seq %d, stream %d", st.Seq, st.StreamSize)
		}
		if _, err := c.CommitEncoded(body); err != nil {
			t.Fatalf("the valid commit after the refusals: %v", err)
		}
		if open, _ := c.transportStatus(); open != 1 {
			t.Fatalf("%d connections open, want the one reused after every 400", open)
		}
	})

	t.Run("unready gate", func(t *testing.T) {
		s, c := oneShard(t, nil)
		req := commitReq(t, c, 1)
		var ue *ShardUnavailableError
		warm := make(chan struct{})
		s.gate.Recover(func() error { <-warm; return nil })
		if _, err := c.Tag(&TagRequest{Sentences: cycles[0]}); !errors.As(err, &ue) {
			t.Fatalf("tag while replaying: %v, want unavailable", err)
		}
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
		req := commitReq(t, c, 1)
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
		if _, err := c.Commit(untaggedCommit(cycles, 2)); !errors.As(err, &ue) {
			t.Fatalf("commit after a durability failure: %v, want the shard to stay bricked", err)
		}
		if _, err := c.Tag(&TagRequest{Sentences: cycles[0]}); !errors.As(err, &ue) {
			t.Fatalf("tag after a durability failure: %v, want the shard to stay bricked", err)
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

// untaggedCommit builds a commit with empty tag results, for calls
// expected to be refused before the body matters.
func untaggedCommit(cycles [][]durable.CycleSentence, seq uint64) *CommitRequest {
	batch := cycles[seq-1]
	req := &CommitRequest{Seq: seq, Sentences: batch, Tagged: make([]*localner.Result, len(batch))}
	for i := range req.Tagged {
		req.Tagged[i] = &localner.Result{}
	}
	return req
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

// TestFleetTagDuringCommit pins the tag path's independence from the
// engine lock, at the exact tier and at f32 (whose packed weight
// mirrors are built lazily by whichever call gets there first): a tag
// completes while the lock a commit holds for its whole cycle is taken,
// and taggers hammering the shard while commits apply get the same
// bytes a quiet replica gives. Run under -race.
func TestFleetTagDuringCommit(t *testing.T) {
	cycles := testCycles(t, 24, 2)
	var all []durable.CycleSentence
	for _, batch := range cycles {
		all = append(all, batch...)
	}
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		t.Run(prec.String(), func(t *testing.T) {
			configure := func(r *core.Globalizer) {
				if err := r.SetPrecision(prec); err != nil {
					t.Fatal(err)
				}
			}
			_, quiet := oneShard(t, configure)
			ref, err := quiet.Tag(&TagRequest{Sentences: all})
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Results

			s, c := oneShard(t, configure)
			// First tags on this replica race the first commits below —
			// nothing has packed its mirrors yet.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			tags := make([]atomic.Int64, 2) // calls each tagger completed
			for w := range tags {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for lo := w; ; lo = (lo + 3) % len(all) {
						select {
						case <-stop:
							return
						default:
						}
						hi := min(lo+4, len(all))
						resp, err := c.Tag(&TagRequest{Sentences: all[lo:hi]})
						if err != nil {
							t.Errorf("tagger %d: %v", w, err)
							return
						}
						if !reflect.DeepEqual(resp.Results, want[lo:hi]) {
							t.Errorf("tagger %d: sentences %d..%d tagged differently during commits", w, lo, hi)
							return
						}
						tags[w].Add(1)
					}
				}(w)
			}
			off := 0
			for i, batch := range cycles {
				req := &CommitRequest{Seq: uint64(i + 1), Sentences: batch, Tagged: want[off : off+len(batch)]}
				off += len(batch)
				if _, err := c.Commit(req); err != nil {
					t.Fatalf("commit %d: %v", i+1, err)
				}
			}
			// With the engine lock held — where a commit spends its whole
			// cycle — a tag still completes.
			deadline := time.Now().Add(20 * time.Second)
			release := holdEngine(s)
			done := make(chan error, 1)
			go func() {
				_, err := c.Tag(&TagRequest{Sentences: all[:2]})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("tag under a held engine lock: %v", err)
				}
			case <-time.After(time.Until(deadline)):
				t.Error("tag queued behind the engine lock")
			}
			// The taggers stop only once each has had a call checked against
			// the quiet replica: how many they fit in beside the commits is
			// the scheduler's business, that they ran at all is the test's.
			for w := range tags {
				for tags[w].Load() == 0 && !t.Failed() {
					if time.Now().After(deadline) {
						t.Errorf("tagger %d completed no call in 20 s", w)
					}
					time.Sleep(time.Millisecond)
				}
			}
			release()
			close(stop)
			wg.Wait()
		})
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
	s, c := oneShard(t, nil)
	dir := t.TempDir()
	if err := s.StartDurable(dir, durable.Options{SnapshotEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	batch := testCycles(t, 2, 2)[0]
	tagged, err := c.Tag(&TagRequest{Sentences: batch})
	if err != nil {
		t.Fatal(err)
	}
	body, err := (&CommitRequest{Seq: 1, Sentences: batch, Tagged: tagged.Results}).encode()
	if err != nil {
		t.Fatal(err)
	}
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
	// One commit frame per cycle, the shard's share of the tag frames,
	// and the HTTP requests (upgrades, /statusz) on top.
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
