package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
)

// TestFleetReadsDuringReplay restarts a durable fleet whose shard 1 has
// a WAL tail to replay, parks that replay half way and reads the fleet
// through the router meanwhile: /statusz answers at once, with the shard
// healthy at the seq it has reached so far; /entities is refused, because
// one shard can only list part of its stream; the router's recovery waits
// for the shard; once it is warm both serve what a single process
// serves.
func TestFleetReadsDuringReplay(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(60, 1)
	_, wantCands, wantEnts := runSingle(t, g, bodies)
	opts := durable.Options{SnapshotEvery: 1 << 20, Fsync: durable.FsyncNone}
	dir := t.TempDir()
	h1 := durableFleet(t, dir, opts)
	for i, body := range bodies {
		if status, resp, _ := postBody(t, h1.URL()+"/annotate", body); status != http.StatusOK {
			h1.Close()
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
	}
	h1.Close()

	h2, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	shardDir := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }
	if err := h2.Shards[0].StartDurable(shardDir(0), opts); err != nil {
		t.Fatal(err)
	}
	if err := h2.Shards[0].WaitWarm(); err != nil {
		t.Fatal(err)
	}
	// Shard 1's StartDurable, taken apart so the replay can be held
	// between two halves of its tail for as long as the reads below take,
	// on any machine. (The second half starts a fresh provenance chain;
	// nothing here reads it.)
	sh := h2.Shards[1]
	rec, err := sh.rep.Open(shardDir(1), opts, sh.registry())
	if err != nil {
		t.Fatal(err)
	}
	half := len(rec.Tail) / 2
	parked, resume := make(chan struct{}), make(chan struct{})
	sh.gate.Recover(func() error {
		if err := sh.recoverFrom(&durable.Recovery{Snapshot: rec.Snapshot, Tail: rec.Tail[:half]}); err != nil {
			return err
		}
		close(parked)
		<-resume
		return sh.recoverFrom(&durable.Recovery{Tail: rec.Tail[half:]})
	})
	<-parked
	var st RouterStatuszResponse
	if err := json.Unmarshal([]byte(getBody(t, h2.URL()+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if s := st.Shards[1]; !s.Healthy || s.Status.Seq != uint64(half) {
		t.Fatalf("the router's /statusz shows shard 1 healthy=%v (%s) at seq %d, want the %d of %d the replay has reached",
			s.Healthy, s.Error, s.Status.Seq, half, len(bodies))
	}
	if s := st.Shards[0]; !s.Healthy || s.Status.Seq != uint64(len(bodies)) {
		t.Fatalf("warm shard 0 reported healthy=%v at seq %d", s.Healthy, s.Status.Seq)
	}
	for _, path := range []string{"/entities", "/candidates"} {
		resp, err := http.Get(h2.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(msg.String(), "shard 1 unavailable") {
			t.Fatalf("%s while shard 1 replays: status %d: %s", path, resp.StatusCode, msg.String())
		}
	}

	// The router's own recovery starts while the shard still replays: it
	// must wait for the shard to be warm before it reads what the shard
	// is missing, not re-drive from the seq the replay has reached so far.
	if err := h2.Router.StartDurable(filepath.Join(dir, "router"), opts); err != nil {
		t.Fatal(err)
	}
	close(resume)
	if err := h2.Router.WaitWarm(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Shards[1].WaitWarm(); err != nil {
		t.Fatal(err)
	}
	if ents := getBody(t, h2.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities after the replay\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if cands := getBody(t, h2.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates after the replay\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
}

// The fixed stream testdata/parent_fleet was written from, and how: 14
// one-tweet cycles on a K=2 fleet snapshotting every 4, so each member
// stops two cycles past its last snapshot.
var parentFleetOpts = durable.Options{SnapshotEvery: 4}

const parentFleetCycles = 14

func parentFleetBodies() []string { return streamBodies(17, 1) }

// writeParentFleet runs the first parentFleetCycles requests on a
// durable K=2 fleet over dir, letting every snapshot land at its
// boundary, and stops it.
func writeParentFleet(t *testing.T, dir string) {
	t.Helper()
	h := durableFleet(t, dir, parentFleetOpts)
	defer h.Close()
	for i, body := range parentFleetBodies()[:parentFleetCycles] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
		shardsIdle(t, h)
		deadline := time.Now().Add(30 * time.Second)
		for h.Router.dl.Status().SnapshotPending > 0 {
			if time.Now().After(deadline) {
				t.Fatal("router snapshot writer still busy after 30s")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestParentFleetDataDir holds the fleet to the bytes of the build
// before the shard ran on server.Replica (testdata/parent_fleet, written
// by that build's binary running writeParentFleet): the same stream
// leaves the same WAL segments, byte for byte, and snapshot files that
// recover to the same state — version 3 here, version 2 there — in both
// shards' and the router's directories, and the parent's directories
// resume here and serve /entities, /candidates and the following
// /annotate replies as a single process that never stopped.
func TestParentFleetDataDir(t *testing.T) {
	const parent = "testdata/parent_fleet"
	fresh, resumed := t.TempDir(), t.TempDir()
	writeParentFleet(t, fresh)
	for _, member := range []string{"shard-0", "shard-1", "router"} {
		names := func(dir string) []string {
			entries, err := os.ReadDir(filepath.Join(dir, member))
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
		if got := names(fresh); !reflect.DeepEqual(got, files) || len(files) < 2 {
			t.Fatalf("%s: this build left %v, the parent %v", member, got, files)
		}
		if err := os.Mkdir(filepath.Join(resumed, member), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			want, err := os.ReadFile(filepath.Join(parent, member, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(fresh, member, name))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(name, ".snap") && !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: %d bytes here differ from the parent's %d", member, name, len(got), len(want))
			}
			if err := os.WriteFile(filepath.Join(resumed, member, name), want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sameRecoveries(t, filepath.Join(parent, member), filepath.Join(fresh, member), files)
	}

	bodies := parentFleetBodies()
	_, midCands, midEnts := runSingle(t, trainedPipeline(t), bodies[:parentFleetCycles])
	want, _, _ := runSingle(t, trainedPipeline(t), bodies)
	h := durableFleet(t, resumed, parentFleetOpts)
	defer h.Close()
	if got := h.Router.Cycles(); got != parentFleetCycles {
		t.Fatalf("recovered cycle counter = %d, want %d", got, parentFleetCycles)
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != midEnts {
		t.Fatalf("entities on the parent's data dirs\nfleet:  %s\nsingle: %s", ents, midEnts)
	}
	if cands := getBody(t, h.URL()+"/candidates"); cands != midCands {
		t.Fatalf("candidates on the parent's data dirs\nfleet:  %s\nsingle: %s", cands, midCands)
	}
	for i := parentFleetCycles; i < len(bodies); i++ {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", bodies[i]); status != http.StatusOK || resp != want[i] {
			t.Fatalf("request %d after resuming the parent's data dirs: status %d\nfleet:  %s\nsingle: %s", i, status, resp, want[i])
		}
	}
}

// TestParentFleetDataDirStaysAmortized resumes the parent's fleet data
// dirs and checks that every resumed shard engine still holds its
// amortizer, so that a capture carries it. A resume that fell to the
// scratch path would answer the same bytes, only slower, and no byte
// comparison sees that.
func TestParentFleetDataDirStaysAmortized(t *testing.T) {
	dir := t.TempDir()
	for _, member := range []string{"shard-0", "shard-1", "router"} {
		cp := copyTestdata(t, filepath.Join("testdata/parent_fleet", member, "*"))
		if err := os.Rename(cp, filepath.Join(dir, member)); err != nil {
			t.Fatal(err)
		}
	}
	h := durableFleet(t, dir, parentFleetOpts)
	defer h.Close()
	for i, s := range h.Shards {
		var amortized bool
		s.rep.View(func(g *core.Globalizer) { amortized = g.CaptureWarmState().Amort != nil })
		if !amortized {
			t.Fatalf("shard %d resumed from the parent's data dir holds no amortizer", i)
		}
	}
}

// sameRecoveries fails unless data dirs a and b, which hold the same
// files, recover to the same state at every snapshot of their chain:
// for each snapshot file in turn, copies of both holding the WAL and
// the snapshots up to that one must open to equal recoveries. It
// compares snapshots written in different format versions by what they
// hold rather than by their bytes.
func sameRecoveries(t *testing.T, a, b string, files []string) {
	t.Helper()
	var kept []string
	for _, name := range files {
		if !strings.HasSuffix(name, ".snap") {
			kept = append(kept, name)
		}
	}
	for _, snap := range files {
		if !strings.HasSuffix(snap, ".snap") {
			continue
		}
		kept = append(kept, snap)
		var recs [2]*durable.Recovery
		for i, dir := range []string{a, b} {
			cp := t.TempDir()
			for _, name := range kept {
				buf, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cp, name), buf, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, rec, err := durable.Open(cp, durable.Options{}, nil)
			if err != nil {
				t.Fatalf("%s up to %s: %v", dir, snap, err)
			}
			l.Close()
			recs[i] = rec
		}
		if !reflect.DeepEqual(recs[0], recs[1]) {
			t.Fatalf("%s and %s recover to different states up to %s", a, b, snap)
		}
	}
}
