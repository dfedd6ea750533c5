package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nerglobalizer/internal/durable"
)

// TestFleetDurableRestartByteIdentical is the tentpole contract on the
// sharded topology: a K=2 fleet killed mid-stream and restarted from
// its data dirs continues the stream byte-identically to an
// uninterrupted single-process run — per-shard snapshots and WALs
// restore the replicas, the router journal restores the cycle cursor.
// The long case stops as soon as every shard is several deltas past its
// newest base, so each shard's recovery has a chain to merge.
func TestFleetDurableRestartByteIdentical(t *testing.T) {
	t.Run("base", func(t *testing.T) {
		fleetRestartByteIdentical(t, streamBodies(16, 2), durable.Options{SnapshotEvery: 2}, 1)
	})
	t.Run("chain", func(t *testing.T) {
		fleetRestartByteIdentical(t, streamBodies(196, 2), durable.Options{SnapshotEvery: 4}, 4)
	})
}

// shardsIdle waits until no shard has a snapshot captured, queued or
// being written, and returns the shortest snapshot chain among them.
func shardsIdle(t *testing.T, h *Harness) (minChain int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < len(h.Shards); {
		st := h.Shards[i].rep.Durability()
		if st.SnapshotPending > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: snapshot writer still busy after 30s", i)
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if i == 0 || st.ChainLength < minChain {
			minChain = st.ChainLength
		}
		i++
	}
	return minChain
}

// fleetRestartByteIdentical runs the restart contract over bodies. The
// first fleet is fed until every shard's snapshot chain is at least
// minChain files long — how many requests that takes depends on how
// large deltas encode relative to their base, which is not this test's
// business — and at least a quarter of the stream; the restarted fleet
// gets the rest.
func fleetRestartByteIdentical(t *testing.T, bodies []string, opts durable.Options, minChain int) {
	g := trainedPipeline(t)
	_, wantCands, wantEnts := runSingle(t, g, bodies)

	dir := t.TempDir()
	h1, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.StartDurable(dir, opts); err != nil {
		h1.Close()
		t.Fatal(err)
	}
	half, chain := 0, 0
	for half < len(bodies)*3/4 && (half < len(bodies)/4 || chain < minChain) {
		status, resp, _ := postBody(t, h1.URL()+"/annotate", bodies[half])
		if status != http.StatusOK {
			h1.Close()
			t.Fatalf("request %d: status %d: %s", half, status, resp)
		}
		half++
		// Let every snapshot land at its schedule boundary, so the
		// chains have the same shape on every run.
		chain = shardsIdle(t, h1)
	}
	h1.Close()
	if chain < minChain {
		t.Fatalf("after %d of %d requests no shard state with every chain at %d files (last: %d)", half, len(bodies), minChain, chain)
	}

	h2, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies[half:] {
		status, resp, _ := postBody(t, h2.URL()+"/annotate", body)
		if status != http.StatusOK {
			t.Fatalf("resumed request %d: status %d: %s", i, status, resp)
		}
	}
	if ents := getBody(t, h2.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities diverged after fleet restart\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if cands := getBody(t, h2.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates diverged after fleet restart\nfleet:  %s\nsingle: %s", cands, wantCands)
	}

	// Every shard proves its owned annotations for a pre-crash tweet on
	// its own chain.
	var bundles []*durable.ProofBundle
	if err := json.Unmarshal([]byte(getBody(t, h2.URL()+"/proof?tweet=0")), &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("proof bundles = %d, want one per shard", len(bundles))
	}
	seen := map[int]bool{}
	for _, b := range bundles {
		if n, err := b.Verify(); err != nil {
			t.Fatalf("shard %d bundle: %v", b.Shard, err)
		} else if n == 0 {
			t.Fatalf("shard %d bundle proves nothing", b.Shard)
		}
		seen[b.Shard] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("bundles cover shards %v, want 0 and 1", seen)
	}

	// Reset is refused while durability is on — fleet-wide.
	status, _, _ := postBody(t, h2.URL()+"/reset", "")
	if status != http.StatusConflict {
		t.Fatalf("durable fleet reset status = %d, want 409", status)
	}
}

// TestFleetRedriveWipedShard loses one shard's entire data dir and
// restarts: the shard recovers cold at seq 0 and the router re-drives
// every journaled cycle into it (the shard tags each batch itself, the
// seq gate makes replay exactly-once), converging back to the identical
// stream.
func TestFleetRedriveWipedShard(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(8, 2)
	dir := t.TempDir()
	// No snapshots: the journal must retain everything a cold shard
	// needs.
	opts := durable.Options{SnapshotEvery: 1 << 20}

	h1, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.StartDurable(dir, opts); err != nil {
		h1.Close()
		t.Fatal(err)
	}
	for i, body := range bodies {
		status, resp, _ := postBody(t, h1.URL()+"/annotate", body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
	}
	want := getBody(t, h1.URL()+"/entities")
	cycles := h1.Router.Cycles()
	h1.Close()

	if err := os.RemoveAll(filepath.Join(dir, "shard-1")); err != nil {
		t.Fatal(err)
	}

	h2, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if got := h2.Shards[1].Status().Seq; got != uint64(cycles) {
		t.Fatalf("re-driven shard at seq %d, want %d", got, cycles)
	}
	if got := getBody(t, h2.URL()+"/entities"); got != want {
		t.Fatalf("entities diverged after shard re-drive\nwant: %s\ngot:  %s", want, got)
	}
}

// TestFleetHealthzStates covers the replay-aware readiness contract on
// both fleet roles.
func TestFleetHealthzStates(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	check := func(name string, handler http.HandlerFunc, wantCode int, wantBody string) {
		t.Helper()
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != wantCode || rec.Body.String() != wantBody {
			t.Fatalf("%s healthz = %d %q, want %d %q", name, rec.Code, rec.Body.String(), wantCode, wantBody)
		}
	}
	sh, rt := h.Shards[0], h.Router
	shardHealthz, routerHealthz := sh.Handler().ServeHTTP, rt.Handler().ServeHTTP
	check("shard warm", shardHealthz, http.StatusOK, "ok\n")
	check("router warm", routerHealthz, http.StatusOK, "ok\n")
	warm := make(chan struct{})
	sh.gate.Recover(func() error { <-warm; return nil })
	rt.front.Gate.Recover(func() error { <-warm; return nil })
	check("shard replaying", shardHealthz, http.StatusServiceUnavailable, "{\"status\":\"replaying\"}\n")
	check("router replaying", routerHealthz, http.StatusServiceUnavailable, "{\"status\":\"replaying\"}\n")
	close(warm)
	if err := sh.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	check("shard warm again", shardHealthz, http.StatusOK, "ok\n")
	check("router warm again", routerHealthz, http.StatusOK, "ok\n")
}

// copyTestdata copies the fixture files matching pattern into a fresh
// directory a test may open for writing.
func copyTestdata(t *testing.T, pattern string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: %v, %v", pattern, files, err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// durableFleet starts a K=2 harness persisting under dir.
func durableFleet(t *testing.T, dir string, opts durable.Options) *Harness {
	t.Helper()
	h, err := NewHarness(trainedPipeline(t), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.StartDurable(dir, opts); err != nil {
		h.Close()
		t.Fatal(err)
	}
	return h
}

// TestFleetBlankTweetRestartByteIdentical is the fleet half of the
// single server's TestBlankTweetRestartByteIdentical: the fleet restarts
// right after a request whose last tweet is blank, and the next tweet
// must be answered as by a fleet that never stopped. The router rebuilds
// its ID cursor from the journal, which cannot show an ID given to a
// tweet without a sentence.
func TestFleetBlankTweetRestartByteIdentical(t *testing.T) {
	requests := []string{
		`{"tweets":["President Obama visits Paris this week"]}`,
		`{"tweets":["Governor Beshear gives an update","   "]}`,
		`{"tweets":["Cases rise in Italy again"]}`,
	}
	opts := durable.Options{}
	post := func(h *Harness, body string) string {
		status, resp, _ := postBody(t, h.URL()+"/annotate", body)
		return fmt.Sprintf("%d %s", status, resp)
	}

	ref := durableFleet(t, t.TempDir(), opts)
	var want []string
	for _, body := range requests {
		want = append(want, post(ref, body))
	}
	ref.Close()

	dir := t.TempDir()
	h1 := durableFleet(t, dir, opts)
	for i, body := range requests[:2] {
		if got := post(h1, body); got != want[i] {
			h1.Close()
			t.Fatalf("request %d answered differently on two fresh fleets\nwant: %s\ngot:  %s", i, want[i], got)
		}
	}
	h1.Close()
	h2 := durableFleet(t, dir, opts)
	defer h2.Close()
	if got := post(h2, requests[2]); got != want[2] {
		t.Fatalf("the tweet after a restart is answered differently than by a fleet that never stopped\nwant: %s\ngot:  %s", want[2], got)
	}
}

// TestRouterSnapshotIsCursorOnly pins what a router snapshot holds: the
// cycle cursor, so the file is the same size however long the stream —
// and a router restarted from it, with only the journal tail behind it,
// continues byte-identically to a run that never stopped.
func TestRouterSnapshotIsCursorOnly(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(40, 1) // one tweet, so one ID, per cycle
	want, wantCands, wantEnts := runSingle(t, g, bodies)
	const every = 2
	opts := durable.Options{SnapshotEvery: every}
	dir := t.TempDir()

	feed := func(h *Harness, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			status, resp, _ := postBody(t, h.URL()+"/annotate", bodies[i])
			if status != http.StatusOK || resp != want[i] {
				t.Fatalf("request %d: status %d, differs from single-process\nfleet:  %s\nsingle: %s", i, status, resp, want[i])
			}
			shardsIdle(t, h)
		}
	}
	// newestSnapshot waits for the router snapshot the schedule owes at
	// this point of the stream and returns its cycle and file size.
	newestSnapshot := func(h *Harness, cycles int) (uint64, int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := h.Router.dl.Status()
			if st.SnapshotPending == 0 && st.BaseSeq+every > uint64(cycles) {
				files, err := filepath.Glob(filepath.Join(dir, "router", "snap-*.snap"))
				if err != nil || len(files) != 1 {
					t.Fatalf("router snapshots on disk: %v (%v), want the one base", files, err)
				}
				fi, err := os.Stat(files[0])
				if err != nil {
					t.Fatal(err)
				}
				return st.BaseSeq, fi.Size()
			}
			if time.Now().After(deadline) {
				t.Fatalf("no router snapshot within %d cycles of cycle %d: %+v", every, cycles, st)
			}
			time.Sleep(time.Millisecond)
		}
	}

	h1 := durableFleet(t, dir, opts)
	feed(h1, 0, 8)
	earlySeq, earlySize := newestSnapshot(h1, 8)
	feed(h1, 8, 34)
	lateSeq, lateSize := newestSnapshot(h1, 34)
	h1.Close()
	if lateSeq < 4*earlySeq {
		t.Fatalf("snapshots at cycles %d and %d: the stream did not grow fourfold between them", earlySeq, lateSeq)
	}
	if lateSize != earlySize {
		t.Fatalf("router snapshot is %d bytes at cycle %d and %d bytes at cycle %d: it grows with the stream", earlySize, earlySeq, lateSize, lateSeq)
	}

	// What the restarted router reads back: the cursor, and a journal tail
	// shorter than the cadence.
	l, rec, err := durable.Open(filepath.Join(dir, "router"), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if s := rec.Snapshot; s == nil || s.Kind != durable.KindRouter || s.Seq != lateSeq || s.NextID != int(lateSeq) || s.Warm != nil || s.Provenance != nil || len(rec.Tail) >= every {
		t.Fatalf("router dir recovers to %+v with a tail of %d", rec.Snapshot, len(rec.Tail))
	}

	h2 := durableFleet(t, dir, opts)
	defer h2.Close()
	feed(h2, 34, len(bodies))
	if ents := getBody(t, h2.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities diverged after the router restart\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if cands := getBody(t, h2.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates diverged after the router restart\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
}

// TestRouterResumesParentDataDir resumes a router on a data dir written
// by the build that still snapshotted its sentence registry
// (testdata/parent_router: six cycles, a snapshot at cycle 4 listing
// every sentence ingested till then, the journal of all six). The
// shards are brought to the journal's last cycle first — by the same
// commits the router's re-drive sends — so the router under test has
// only itself to restore: it must load the snapshot, take the ID cursor
// from the tail, and serve the bodies of a run that never stopped.
func TestRouterResumesParentDataDir(t *testing.T) {
	g := trainedPipeline(t)
	// The journal alone (no snapshot beside it) reads back from cycle 1:
	// the stream the parent fleet ingested, one request per cycle.
	l, rec, err := durable.Open(copyTestdata(t, "testdata/parent_router/wal-*.log"), durable.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	journal := rec.Tail
	if len(journal) != 6 || journal[0].Seq != 1 {
		t.Fatalf("parent journal holds %d cycles, want 1..6", len(journal))
	}
	var bodies []string
	for _, cr := range journal {
		var tweets []string
		for _, cs := range cr.Sentences {
			text := strings.Join(cs.Tokens, " ")
			if cs.SentID == 0 {
				tweets = append(tweets, text)
			} else {
				tweets[len(tweets)-1] += " " + text
			}
		}
		b, _ := json.Marshal(map[string][]string{"tweets": tweets})
		bodies = append(bodies, string(b))
	}
	_, midCands, midEnts := runSingle(t, g, bodies)
	more := streamBodies(30, 2)[6:]
	want, wantCands, wantEnts := runSingle(t, g, append(bodies, more...))

	// The parent's snapshot really lists sentences: the first journaled
	// token is in the file.
	dir := copyTestdata(t, "testdata/parent_router/*")
	snap, err := os.ReadFile(filepath.Join(dir, "snap-00000000000000000004.snap"))
	if err != nil || !bytes.Contains(snap, []byte(journal[0].Sentences[0].Tokens[0])) {
		t.Fatalf("parent router snapshot carries no sentence list (%v)", err)
	}

	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, cr := range journal {
		req := &CommitRequest{Seq: cr.Seq, Sentences: cr.Sentences}
		for _, c := range h.Router.clients {
			if _, err := c.Commit(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Router.StartDurable(dir, durable.Options{SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.WaitWarm(); err != nil {
		t.Fatalf("router recovery on the parent's data dir: %v", err)
	}
	if got := h.Router.Cycles(); got != len(journal) {
		t.Fatalf("recovered cycle counter = %d, want %d", got, len(journal))
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != midEnts {
		t.Fatalf("entities after resuming the parent's router\nfleet:  %s\nsingle: %s", ents, midEnts)
	}
	if cands := getBody(t, h.URL()+"/candidates"); cands != midCands {
		t.Fatalf("candidates after resuming the parent's router\nfleet:  %s\nsingle: %s", cands, midCands)
	}
	for i, body := range more {
		status, resp, _ := postBody(t, h.URL()+"/annotate", body)
		if status != http.StatusOK || resp != want[len(bodies)+i] {
			t.Fatalf("request %d after resuming: status %d\nfleet:  %s\nsingle: %s", i, status, resp, want[len(bodies)+i])
		}
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities diverged after resuming the parent's router\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if cands := getBody(t, h.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates diverged after resuming the parent's router\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
}
