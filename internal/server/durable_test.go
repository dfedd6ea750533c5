package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
)

// durableTweets is a fixed stream, posted in fixed groups so the
// reference run and the durable restart run see identical cycles.
var durableTweets = [][]string{
	{"Cases rise in Italy again! Stay safe.", "omg Italy"},
	{"President Obama visits Paris this week"},
	{"obama gave a speech. paris cheered."},
	{"Google opens an office in Milan", "milan is buzzing"},
	{"Huge crowds for Obama in italy today"},
	{"google stock rises after the Milan news"},
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func feedTweets(t *testing.T, url string, groups [][]string) {
	t.Helper()
	for _, g := range groups {
		resp := postJSON(t, url+"/annotate", annotateRequest{Tweets: g})
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("annotate status = %d: %s", resp.StatusCode, b)
		}
		resp.Body.Close()
	}
}

// postAnnotate posts one /annotate request and returns its status and
// body as one string, for byte comparison.
func postAnnotate(t *testing.T, url string, tweets []string) string {
	t.Helper()
	resp := postJSON(t, url+"/annotate", annotateRequest{Tweets: tweets})
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, b)
}

// feedIdle posts the groups one request at a time, letting the
// snapshot writer go idle after each, so snapshots land at every
// schedule boundary and the chain's shape is the same on every run.
func feedIdle(t *testing.T, s *Server, url string, groups [][]string) {
	t.Helper()
	for _, g := range groups {
		feedTweets(t, url, [][]string{g})
		waitSnapshotsIdle(t, s)
	}
}

// oneTweetGroups turns tweets into single-tweet requests.
func oneTweetGroups(tweets []string) [][]string {
	out := make([][]string, len(tweets))
	for i, tw := range tweets {
		out[i] = []string{tw}
	}
	return out
}

// TestDurableRestartByteIdentical is the tentpole contract end to end:
// kill a durable server mid-stream, restart from the data dir, continue
// the stream, and the final /entities answer is byte-identical to an
// uninterrupted run. The long case stops the first server several
// deltas past its newest base, so recovery has a chain to merge.
func TestDurableRestartByteIdentical(t *testing.T) {
	t.Run("base", func(t *testing.T) {
		restartByteIdentical(t, durableTweets, durable.Options{SnapshotEvery: 2}, 1)
	})
	t.Run("chain", func(t *testing.T) {
		restartByteIdentical(t, oneTweetGroups(streamTweets(98, 43)), durable.Options{SnapshotEvery: 4}, 4)
	})
}

// restartByteIdentical runs the restart contract over groups, stopping
// after the first half; the snapshot chain at the stop must be at least
// minChain files long.
func restartByteIdentical(t *testing.T, groups [][]string, opts durable.Options, minChain int) {
	g := trainedPipeline(t)
	half := len(groups) / 2

	// Reference: uninterrupted, no durability.
	g.Reset()
	ref := New(g)
	refTS := httptest.NewServer(ref.Handler())
	feedTweets(t, refTS.URL, groups)
	_, want := getBody(t, refTS.URL+"/entities")
	refTS.Close()
	ref.Close()

	// Durable run, first half, then a restart from the data dir.
	dir := t.TempDir()
	s1 := New(g)
	if err := s1.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s1.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	feedIdle(t, s1, ts1.URL, groups[:half])
	st := s1.rep.dl.Status()
	if st.ChainLength < minChain || len(snapshotFiles(t, dir)) != st.ChainLength {
		t.Fatalf("stopped on a chain of %d files (%v), the case needs %d", st.ChainLength, snapshotFiles(t, dir), minChain)
	}
	ts1.Close()
	s1.Close()

	s2 := New(g) // New resets the engine: recovery must rebuild everything
	if err := s2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Cycles(), half; got != want {
		t.Fatalf("recovered cycle counter = %d, want %d", got, want)
	}
	if got := s2.rep.dl.Status(); got.ChainLength != st.ChainLength || got.BaseSeq != st.BaseSeq {
		t.Fatalf("recovery merged a chain of %d on base %d, the first server left %d on %d", got.ChainLength, got.BaseSeq, st.ChainLength, st.BaseSeq)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	feedTweets(t, ts2.URL, groups[half:])

	_, got := getBody(t, ts2.URL+"/entities")
	if string(got) != string(want) {
		t.Fatalf("restart diverged\nwant: %s\ngot:  %s", want, got)
	}

	// /statusz reports the chain the second server has grown since: its
	// first snapshot was a base, which pruned the recovered chain.
	var sz struct {
		Durability *struct {
			ChainLength int    `json:"chain_length"`
			BaseSeq     uint64 `json:"base_seq"`
		} `json:"durability"`
	}
	live := waitSnapshotsIdle(t, s2)
	code, body := getBody(t, ts2.URL+"/statusz")
	if err := json.Unmarshal(body, &sz); err != nil || code != http.StatusOK {
		t.Fatal(err)
	}
	if sz.Durability == nil || sz.Durability.ChainLength != live.ChainLength || sz.Durability.BaseSeq != live.BaseSeq ||
		live.BaseSeq <= uint64(half) || len(snapshotFiles(t, dir)) != live.ChainLength {
		t.Fatalf("statusz durability %+v, log status %+v, directory %v", sz.Durability, live, snapshotFiles(t, dir))
	}

	// The resumed run serves verifiable inclusion proofs covering
	// pre-crash tweets.
	code, body = getBody(t, ts2.URL+"/proof?tweet=0")
	if code != http.StatusOK {
		t.Fatalf("proof status = %d: %s", code, body)
	}
	var bundles []*durable.ProofBundle
	if err := json.Unmarshal(body, &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	if n, err := bundles[0].Verify(); err != nil {
		t.Fatalf("proof verify: %v", err)
	} else if n == 0 {
		t.Fatal("proof bundle proves nothing")
	}

	// Unknown tweets 404; /reset is refused on a durable server.
	if code, _ := getBody(t, ts2.URL+"/proof?tweet=9999"); code != http.StatusNotFound {
		t.Fatalf("missing-tweet proof status = %d", code)
	}
	resp := postJSON(t, ts2.URL+"/reset", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reset status = %d, want 409", resp.StatusCode)
	}
}

// TestBlankTweetRestartByteIdentical restarts right after a request
// whose last tweet is blank, and posts one more tweet: it must be
// answered as on a server that never stopped. A blank tweet tokenizes to
// no sentence, so if it were given an ID the cycle's WAL record would
// not show it, and replay — which rebuilds the ID cursor from the
// records — would hand that ID out a second time.
func TestBlankTweetRestartByteIdentical(t *testing.T) {
	g := trainedPipeline(t)
	requests := []annotateRequest{
		{Tweets: []string{"President Obama visits Paris this week"}},
		{Tweets: []string{"Governor Beshear gives an update", "   "}},
		{Tweets: []string{"Cases rise in Italy again"}},
	}
	post := func(url string, req annotateRequest) string { return postAnnotate(t, url, req.Tweets) }
	start := func(dir string) (*Server, *httptest.Server) {
		s := New(g)
		if err := s.StartDurable(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}

	ref, refTS := start(t.TempDir())
	var want []string
	for _, req := range requests {
		want = append(want, post(refTS.URL, req))
	}
	refTS.Close()
	ref.Close()

	dir := t.TempDir()
	s1, ts1 := start(dir)
	for i, req := range requests[:2] {
		if got := post(ts1.URL, req); got != want[i] {
			t.Fatalf("request %d answered differently on two fresh servers\nwant: %s\ngot:  %s", i, want[i], got)
		}
	}
	ts1.Close()
	s1.Close()
	s2, ts2 := start(dir)
	defer s2.Close()
	defer ts2.Close()
	if got := post(ts2.URL, requests[2]); got != want[2] {
		t.Fatalf("the tweet after a restart is answered differently than on a server that never stopped\nwant: %s\ngot:  %s", want[2], got)
	}
}

// TestHealthzReplayStates covers the readiness contract: 503
// {"status":"replaying"} during recovery, the plain 200 once warm.
func TestHealthzReplayStates(t *testing.T) {
	_, srv := newTestServerFull(t)
	h := srv.Handler()
	warm := make(chan struct{})
	srv.front.Gate.Recover(func() error { <-warm; return nil })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("replaying healthz = %d", rec.Code)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "replaying" {
		t.Fatalf("status = %q", st.Status)
	}

	// Annotate is gated while replaying.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/annotate", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("replaying annotate = %d", rec.Code)
	}

	close(warm)
	if err := srv.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("warm healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestProofWithoutDataDir: provenance requires durability.
func TestProofWithoutDataDir(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := getBody(t, ts.URL+"/proof?tweet=0"); code != http.StatusNotFound {
		t.Fatalf("proof without -data-dir = %d", code)
	}
}

// TestGroupCommitConcurrentRestart hammers a durable server running the
// group-commit fsync policy with concurrent clients, then restarts it
// from the data dir. Acks are only sent after the covering fsync, so
// everything the clients saw acknowledged must be reconstructed
// byte-identically — the WAL alone has to carry whatever the snapshot
// writer had not yet flushed. A serial
// tail then grows the snapshot chain to three deltas past its base, so
// the restart merges a chain the concurrent phase started.
func TestGroupCommitConcurrentRestart(t *testing.T) {
	g := trainedPipeline(t)
	dir := t.TempDir()
	opts := durable.Options{SnapshotEvery: 2, Fsync: durable.FsyncGroup}

	s1 := New(g)
	if err := s1.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s1.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				text := fmt.Sprintf("client%d round%d says Obama visited Italy", c, r)
				resp := postJSON(t, ts1.URL+"/annotate", annotateRequest{Tweets: []string{text}})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("round %d: status %d", r, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	tail := streamTweets(64, 47)
	for i := 0; waitSnapshotsIdle(t, s1).ChainLength < 4; i++ {
		if i == len(tail) {
			t.Fatalf("chain still %d files long after %d serial cycles", s1.rep.dl.Status().ChainLength, i)
		}
		feedTweets(t, ts1.URL, [][]string{{tail[i]}})
	}

	_, want := getBody(t, ts1.URL+"/entities")
	cycles := s1.Cycles()
	ts1.Close()
	s1.Close()

	s2 := New(g)
	if err := s2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Cycles(); got != cycles {
		t.Fatalf("recovered cycle counter = %d, want %d", got, cycles)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, got := getBody(t, ts2.URL+"/entities")
	if string(got) != string(want) {
		t.Fatalf("group-commit restart diverged\nwant: %s\ngot:  %s", want, got)
	}
}

// streamTweets renders n tweets of a generated recurrent stream as raw
// text, one per request.
func streamTweets(n int, seed int64) []string {
	ds := corpus.Generate(corpus.StreamConfig{
		Name: "durable", NumTweets: n, NumTopics: 2,
		PerTopicEntities: [4]int{10, 8, 6, 6},
		ZipfExponent:     1.1, TypoRate: 0.02, LowercaseRate: 0.3,
		NonEntityRate: 0.3, AmbiguousRate: 0.1, UninformativeRate: 0.1,
		Ambiguity: true, Streaming: true, Seed: seed,
	})
	byTweet := make(map[int][]string)
	var order []int
	for _, s := range ds.Sentences {
		if _, seen := byTweet[s.TweetID]; !seen {
			order = append(order, s.TweetID)
		}
		byTweet[s.TweetID] = append(byTweet[s.TweetID], s.Text())
	}
	out := make([]string, 0, len(order))
	for _, id := range order {
		out = append(out, strings.Join(byTweet[id], " "))
	}
	return out
}

// waitSnapshotsIdle blocks until no snapshot is captured, queued or
// being written.
func waitSnapshotsIdle(t *testing.T, s *Server) durable.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.rep.dl.Status()
		if st.SnapshotPending == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot writer still busy after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// snapshotFiles lists the data dir's snap-* entries.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// mergedChain opens a copy of dir's snapshot files the way recovery
// would and returns the whole state they add up to.
func mergedChain(t *testing.T, dir string) *durable.Snapshot {
	t.Helper()
	tmp := t.TempDir()
	for _, name := range snapshotFiles(t, dir) {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec, err := durable.Open(tmp, durable.Options{Fsync: durable.FsyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.Snapshot == nil {
		t.Fatal("no snapshot chain to merge")
	}
	return rec.Snapshot
}

// snapshotBytes writes the snapshot whole and returns the file.
func snapshotBytes(t *testing.T, snap *durable.Snapshot) []byte {
	t.Helper()
	tmp := t.TempDir()
	if _, err := durable.WriteSnapshot(tmp, snap); err != nil {
		t.Fatal(err)
	}
	names := snapshotFiles(t, tmp)
	if len(names) != 1 {
		t.Fatalf("wrote %d files", len(names))
	}
	b, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveChain starts a durable server snapshotting at the given cadence
// over dir and feeds it the tweets one request at a time, letting the
// writer go idle after each; landed runs after every cycle in which a
// snapshot landed. The caller closes the returned servers.
func driveChain(t *testing.T, dir string, tweets []string, cadence int, landed func(cycle int, st durable.Status, m obs.Snapshot)) (s *Server, ts *httptest.Server, reg *obs.Registry) {
	t.Helper()
	s = New(trainedPipeline(t))
	reg = obs.NewRegistry()
	s.SetObserver(reg)
	if err := s.StartDurable(dir, durable.Options{SnapshotEvery: cadence, Fsync: durable.FsyncNone}); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(s.Handler())
	var writes int64
	for i, text := range tweets {
		feedTweets(t, ts.URL, [][]string{{text}})
		st := waitSnapshotsIdle(t, s)
		m := reg.Snapshot()
		if m.Counters["ner_snapshot_writes_total"] == writes {
			continue
		}
		writes++
		if m.Counters["ner_snapshot_writes_total"] != writes || i+1 != int(writes)*cadence {
			t.Fatalf("cycle %d: %d snapshots landed, counter says %d", i+1, writes, m.Counters["ner_snapshot_writes_total"])
		}
		// Whenever the writer is idle the directory is exactly the
		// newest chain: the newest base first, nothing older.
		files := snapshotFiles(t, dir)
		if int64(len(files)) != m.Gauges["ner_snapshot_chain_length"] || len(files) != st.ChainLength {
			t.Fatalf("cycle %d: chain of %d (statusz %d) but the directory holds %v", i+1, m.Gauges["ner_snapshot_chain_length"], st.ChainLength, files)
		}
		if want := filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", st.BaseSeq)); files[0] != want {
			t.Fatalf("cycle %d: oldest snapshot file %s, newest base %s", i+1, files[0], want)
		}
		landed(i+1, st, m)
	}
	return s, ts, reg
}

// TestDeltaSnapshotsBoundBytesWritten drives a durable server through
// 2,048 single-tweet cycles at cadence 64 and holds the chain to its
// bounds from the program's own counters: the snapshot bytes written
// are at most a third of what whole-state snapshots at the same cycles
// would have cost, at least two thirds of the snapshots are deltas, and
// whenever the writer is idle the directory holds exactly the newest
// chain. The state the chain adds up to is, byte for byte, the whole
// capture of an uninterrupted engine fed the same stream.
func TestDeltaSnapshotsBoundBytesWritten(t *testing.T) {
	const cycles, cadence = 2048, 64
	g := trainedPipeline(t)
	tweets := streamTweets(cycles, 41)
	if len(tweets) != cycles {
		t.Fatalf("generated %d tweets", len(tweets))
	}
	var writes, deltas, wholeBytes int64
	dir := t.TempDir()
	s, ts, reg := driveChain(t, dir, tweets, cadence, func(cycle int, st durable.Status, m obs.Snapshot) {
		writes++
		if st.ChainLength > 1 {
			deltas++
		}
		wholeBytes += int64(len(snapshotBytes(t, mergedChain(t, dir))))
	})
	total := reg.Snapshot().Counters["ner_snapshot_bytes_total"]
	t.Logf("%d snapshots, %d deltas: wrote %d bytes, whole states would be %d (%.1f%%)",
		writes, deltas, total, wholeBytes, 100*float64(total)/float64(wholeBytes))
	if writes != cycles/cadence {
		t.Fatalf("%d snapshots landed, want %d", writes, cycles/cadence)
	}
	if 3*total > wholeBytes {
		t.Fatalf("wrote %d snapshot bytes, more than a third of the %d whole states would cost", total, wholeBytes)
	}
	if 3*deltas < 2*writes {
		t.Fatalf("%d of %d snapshots were deltas, want at least two thirds", deltas, writes)
	}
	nextID := s.nextID
	ts.Close()
	s.Close()
	merged := mergedChain(t, dir)
	if merged.Seq != cycles || merged.NextID != nextID {
		t.Fatalf("chain ends at seq %d, next id %d; server stopped at %d, %d", merged.Seq, merged.NextID, cycles, nextID)
	}

	// The uninterrupted reference: same stream, no durability, one
	// whole capture at the end.
	ref := New(g)
	refTS := httptest.NewServer(ref.Handler())
	for _, text := range tweets {
		feedTweets(t, refTS.URL, [][]string{{text}})
	}
	refTS.Close()
	ref.Close()
	whole := &durable.Snapshot{Kind: durable.KindSingle, Seq: cycles, NextID: ref.nextID,
		Warm: g.CaptureWarmState(), Provenance: merged.Provenance}
	if !bytes.Equal(snapshotBytes(t, merged), snapshotBytes(t, whole)) {
		t.Fatal("the chain does not add up to the whole capture of an uninterrupted run")
	}
}

// TestSnapshotChainPrunedOnBase runs 2,000 cycles at cadence 16 — many
// bases come and go — and checks what the base rule bounds: with the
// writer idle the snapshot files add up to less than twice the whole
// state they encode (what recovery reads), and at the end to less than
// twice the newest base.
func TestSnapshotChainPrunedOnBase(t *testing.T) {
	const cycles, cadence = 2000, 16
	var bases int
	dir := t.TempDir()
	fileBytes := func() (total, base int64) {
		for i, name := range snapshotFiles(t, dir) {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = fi.Size()
			}
			total += fi.Size()
		}
		return total, base
	}
	s, ts, reg := driveChain(t, dir, streamTweets(cycles, 45), cadence, func(cycle int, st durable.Status, m obs.Snapshot) {
		if st.ChainLength == 1 {
			bases++
		}
		if cycle%(8*cadence) != 0 {
			return
		}
		total, _ := fileBytes()
		if whole := int64(len(snapshotBytes(t, mergedChain(t, dir)))); total >= 2*whole {
			t.Fatalf("cycle %d: %d bytes of snapshot files for a state of %d", cycle, total, whole)
		}
	})
	defer s.Close()
	defer ts.Close()
	total, base := fileBytes()
	st := s.rep.dl.Status()
	t.Logf("%d snapshots, %d bases; at the end a chain of %d files, %d bytes on a base of %d",
		reg.Snapshot().Counters["ner_snapshot_writes_total"], bases, st.ChainLength, total, base)
	if bases < 4 {
		t.Fatalf("only %d bases in %d cycles: the case needs bases that replace each other", bases, cycles)
	}
	if total >= 2*base {
		t.Fatalf("snapshot files total %d bytes, the newest base alone %d", total, base)
	}
}

// TestCloseIdempotent: a second Close — what a deferred Close after an
// explicit one amounts to — must be a no-op, with and without the
// durable ack pipeline (whose channel a repeated teardown would close
// twice).
func TestCloseIdempotent(t *testing.T) {
	g := trainedPipeline(t)
	t.Run("plain", func(t *testing.T) {
		s := New(g)
		s.Close()
		s.Close()
	})
	t.Run("durable", func(t *testing.T) {
		s := New(g)
		if err := s.StartDurable(t.TempDir(), durable.Options{SnapshotEvery: 2}); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close()
	})
}
