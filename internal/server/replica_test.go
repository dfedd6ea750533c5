package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/tokenizer"
)

// streamCycles lays n generated tweets out as one-tweet cycles, the way
// the scheduler would batch n serial requests.
func streamCycles(n int, seed int64) [][]durable.CycleSentence {
	var cycles [][]durable.CycleSentence
	id := 0
	for _, raw := range streamTweets(n, seed) {
		job := &Job{Tweets: [][][]string{tokenizer.SplitSentences(tokenizer.Tokenize(raw))}}
		var batch []durable.CycleSentence
		batch, _, id = Batch([]*Job{job}, id)
		cycles = append(cycles, batch)
	}
	return cycles
}

// TestReplicaContract drives a bare Replica — no front, no frame loop —
// through what both processes build on it: a live run of a stream, then
// a restart from what that run left on disk.
func TestReplicaContract(t *testing.T) {
	g := trainedPipeline(t)
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	owner, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cycles := streamCycles(10, 61)

	for _, row := range []struct {
		name  string
		shard int // -1: the single server's replica
		// shipped has the cycles applied with tag results computed ahead,
		// as a shard receives them; otherwise the replica tags, as the
		// single server's does.
		shipped bool
		every   int // snapshot cadence; past the stream = replay from the WAL alone
	}{
		{"single, WAL alone", -1, false, 1 << 20},
		{"single, snapshot chain and tail", -1, false, 3},
		{"shard 1 of 2, shipped tags, WAL alone", 1, true, 1 << 20},
		{"shard 1 of 2, shipped tags, snapshot chain and tail", 1, true, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			engine := g
			engine.Reset()
			if row.shard >= 0 {
				engine = owner
				if err := engine.SetShardOwnership(row.shard, 2); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			opts := durable.Options{SnapshotEvery: row.every}
			start := func() (*Replica, *durable.Gate, Applied) {
				gate := &durable.Gate{}
				r := NewReplica(engine, gate, row.shard)
				rec, err := r.Open(dir, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				var last Applied
				gate.Recover(func() (err error) { last, err = r.Replay(rec); return err })
				if err := gate.WaitWarm(); err != nil {
					t.Fatal(err)
				}
				return r, gate, last
			}

			live, _, _ := start()
			var applied []Applied
			for i, batch := range cycles {
				var tagged []*localner.Result
				if row.shipped {
					tagged = live.Tag(batch)
				}
				out, err := live.Apply(batch, tagged)
				if err != nil {
					t.Fatalf("cycle %d: %v", i+1, err)
				}
				if out.Seq != uint64(i+1) || len(out.Annotations) != len(batch) || out.StreamSize == 0 {
					t.Fatalf("cycle %d applied as %+v", i+1, out)
				}
				if err := out.Wait(); err != nil {
					t.Fatal(err)
				}
				if out.Snapshot != nil {
					live.SubmitSnapshot(out.Snapshot)
					for live.Durability().SnapshotPending > 0 {
						time.Sleep(200 * time.Microsecond)
					}
				}
				applied = append(applied, out)
			}
			_, head, ok := live.prov.Head()
			if !ok {
				t.Fatal("no provenance head after the live run")
			}
			wantEnts, wantCands := live.Entities(), live.Candidates()
			snapshots := live.Durability().ChainLength
			if (snapshots > 0) != (row.every < len(cycles)) {
				t.Fatalf("the live run left a chain of %d snapshots at cadence %d", snapshots, row.every)
			}
			live.Close()

			// What each cycle appended is exactly what Apply returned.
			l, rec, err := durable.Open(dir, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if snapshots == 0 && len(rec.Tail) != len(cycles) {
				t.Fatalf("the WAL holds %d records of %d cycles", len(rec.Tail), len(cycles))
			}
			if len(rec.Tail) == 0 {
				t.Fatal("no WAL tail to replay: the row needs cycles past its last snapshot")
			}
			for _, cr := range rec.Tail {
				out := applied[cr.Seq-1]
				if cr.Mode != int(core.ModeFull) || !reflect.DeepEqual(cr.Sentences, cycles[cr.Seq-1]) || !reflect.DeepEqual(cr.Annotations, out.Annotations) {
					t.Fatalf("cycle %d logged as %+v, Apply returned %+v", cr.Seq, cr, out.Annotations)
				}
			}

			// The same records applied live to a replica without a log,
			// self-tagged, emit the same annotations.
			engine.Reset()
			plain := NewReplica(engine, &durable.Gate{}, row.shard)
			for i, batch := range cycles {
				out, err := plain.Apply(batch, nil)
				if err != nil || out.Wait != nil || out.Snapshot != nil {
					t.Fatalf("cycle %d without a log: %+v, %v", i+1, out, err)
				}
				if !reflect.DeepEqual(out.Annotations, applied[i].Annotations) {
					t.Fatalf("cycle %d: self-tagged %+v, first run %+v", i+1, out.Annotations, applied[i].Annotations)
				}
			}

			// Restore + replay lands where the live run stopped.
			engine.Reset()
			re, gate, last := start()
			if want := applied[len(applied)-1]; !reflect.DeepEqual(last.Annotations, want.Annotations) ||
				last.Seq != want.Seq || last.StreamSize != want.StreamSize || last.Candidates != want.Candidates {
				t.Fatalf("replay ended on %+v, the live run on %+v", last, want)
			}
			if re.Seq() != uint64(len(cycles)) {
				t.Fatalf("replayed to seq %d of %d", re.Seq(), len(cycles))
			}
			if _, got, ok := re.prov.Head(); !ok || got != head {
				t.Fatalf("provenance head after restore + replay %v, after the live run %v", got, head)
			}
			if got := re.Entities(); !reflect.DeepEqual(got, wantEnts) {
				t.Fatalf("entities after replay %+v, live %+v", got, wantEnts)
			}
			if got := re.Candidates(); !reflect.DeepEqual(got, wantCands) {
				t.Fatalf("candidates after replay %+v, live %+v", got, wantCands)
			}

			// An append that fails leaves the replica refusing: the first
			// append after a restart has to create its segment, and without
			// the directory it cannot.
			defer re.Close()
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := re.Apply(cycles[0], nil); err == nil {
				t.Fatal("apply on a lost data dir succeeded")
			}
			if why, _ := gate.Unready(); why == "" {
				t.Fatal("the failed append left the gate open")
			}
			seq := re.Seq()
			if _, err := re.Apply(cycles[0], nil); err == nil || re.Seq() != seq {
				t.Fatalf("apply after a failed append: %v, seq %d -> %d", err, seq, re.Seq())
			}
		})
	}
}

// TestReadsDuringReplay restarts a durable server over a long WAL tail
// and reads it while it replays: /statusz answers at once with the
// stream size reached so far, /entities and /candidates answer 503 with
// a retry hint — as /annotate does — until replay ends, and then serve
// what the uninterrupted run serves.
func TestReadsDuringReplay(t *testing.T) {
	g := trainedPipeline(t)
	groups := oneTweetGroups(streamTweets(500, 53))
	opts := durable.Options{SnapshotEvery: 1 << 20, Fsync: durable.FsyncNone}
	streamSize := func(url string) int {
		var st StatuszResponse
		code, body := getBody(t, url+"/statusz")
		if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
			t.Fatalf("statusz: %d, %v", code, err)
		}
		return st.StreamSize
	}

	dir := t.TempDir()
	s1 := New(g)
	if err := s1.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s1.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	feedTweets(t, ts1.URL, groups)
	_, wantEnts := getBody(t, ts1.URL+"/entities")
	_, wantCands := getBody(t, ts1.URL+"/candidates")
	final := streamSize(ts1.URL)
	ts1.Close()
	s1.Close()

	s2 := New(g)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	if err := s2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	first := streamSize(ts2.URL)
	if code, _ := getBody(t, ts2.URL+"/healthz"); code != http.StatusServiceUnavailable || first >= final {
		t.Fatalf("/statusz answered with %d of %d sentences and /healthz %d after it: it waited for the replay", first, final, code)
	}
	for _, path := range []string{"/entities", "/candidates"} {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("%s while replaying: status %d, Retry-After %q", path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	// Replay progress is visible: the stream grows under the closed gate.
	progressed := false
	for !progressed {
		size := streamSize(ts2.URL)
		if code, _ := getBody(t, ts2.URL+"/healthz"); code == http.StatusOK {
			break
		}
		progressed = size > first
	}
	if !progressed {
		t.Fatalf("/statusz never showed the replay past %d of %d sentences", first, final)
	}
	if err := s2.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	if got := streamSize(ts2.URL); got != final {
		t.Fatalf("replayed %d sentences of %d", got, final)
	}
	if code, got := getBody(t, ts2.URL+"/entities"); code != http.StatusOK || !bytes.Equal(got, wantEnts) {
		t.Fatalf("/entities after replay: %d\nwant: %s\ngot:  %s", code, wantEnts, got)
	}
	if code, got := getBody(t, ts2.URL+"/candidates"); code != http.StatusOK || !bytes.Equal(got, wantCands) {
		t.Fatalf("/candidates after replay: %d\nwant: %s\ngot:  %s", code, wantCands, got)
	}
}

// parentStream is the fixed stream testdata/parent_single was written
// from, and parentOpts how: 14 one-tweet cycles, a base at 4, deltas at
// 8 and 12, two cycles of WAL tail.
var (
	parentStream = oneTweetGroups(streamTweets(17, 59))
	parentOpts   = durable.Options{SnapshotEvery: 4}
)

const parentCycles = 14

// writeParentStream runs the first parentCycles requests of
// parentStream on a durable server over dir, letting every snapshot
// land at its boundary, and stops it.
func writeParentStream(t *testing.T, dir string) {
	t.Helper()
	s := New(trainedPipeline(t))
	if err := s.StartDurable(dir, parentOpts); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	feedIdle(t, s, ts.URL, parentStream[:parentCycles])
	ts.Close()
	s.Close()
}

// TestParentSingleDataDir holds the single server to the bytes of the
// build before the replica existed (testdata/parent_single, written by
// that build's binary running writeParentStream): the same stream leaves
// the same WAL segment and snapshot files, byte for byte, and the
// parent's directory resumes here and serves /entities, /candidates and
// the following /annotate replies as a server that never stopped.
func TestParentSingleDataDir(t *testing.T) {
	const parent = "testdata/parent_single"
	fresh := t.TempDir()
	writeParentStream(t, fresh)
	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	files := names(parent)
	if got := names(fresh); !reflect.DeepEqual(got, files) || len(files) != 4 {
		t.Fatalf("this build left %v, the parent %v (want a base, two deltas and a segment)", got, files)
	}
	resumed := t.TempDir()
	for _, name := range files {
		want, err := os.ReadFile(filepath.Join(parent, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes here differ from the parent's %d", name, len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(resumed, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ref := New(trainedPipeline(t))
	refTS := httptest.NewServer(ref.Handler())
	feedTweets(t, refTS.URL, parentStream[:parentCycles])
	_, wantEnts := getBody(t, refTS.URL+"/entities")
	_, wantCands := getBody(t, refTS.URL+"/candidates")
	var want []string
	for _, tweets := range parentStream[parentCycles:] {
		want = append(want, postAnnotate(t, refTS.URL, tweets))
	}
	refTS.Close()
	ref.Close()

	s := New(trainedPipeline(t))
	if err := s.StartDurable(resumed, parentOpts); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitWarm(); err != nil {
		t.Fatalf("recovery of the parent's data dir: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if s.Cycles() != parentCycles {
		t.Fatalf("recovered cycle counter = %d, want %d", s.Cycles(), parentCycles)
	}
	if _, got := getBody(t, ts.URL+"/entities"); !bytes.Equal(got, wantEnts) {
		t.Fatalf("/entities on the parent's data dir\nwant: %s\ngot:  %s", wantEnts, got)
	}
	if _, got := getBody(t, ts.URL+"/candidates"); !bytes.Equal(got, wantCands) {
		t.Fatalf("/candidates on the parent's data dir\nwant: %s\ngot:  %s", wantCands, got)
	}
	for i, tweets := range parentStream[parentCycles:] {
		if got := postAnnotate(t, ts.URL, tweets); got != want[i] {
			t.Fatalf("request %d after resuming the parent's data dir\nwant: %s\ngot:  %s", i, want[i], got)
		}
	}
}
