package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
		fleetRestartByteIdentical(t, streamBodies(16, 2), durable.Options{SnapshotEvery: 2, Fsync: durable.FsyncAlways}, 1)
	})
	t.Run("chain", func(t *testing.T) {
		fleetRestartByteIdentical(t, streamBodies(196, 2), durable.Options{SnapshotEvery: 4, Fsync: durable.FsyncAlways}, 4)
	})
}

// shardsIdle waits until no shard has a snapshot captured, queued or
// being written, and returns the shortest snapshot chain among them.
func shardsIdle(t *testing.T, h *Harness) (minChain int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < len(h.Shards); {
		st := h.Shards[i].dl.Status()
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
// every journaled cycle into it (re-tagging is pure, the seq gate makes
// replay exactly-once), converging back to the identical stream.
func TestFleetRedriveWipedShard(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(8, 2)
	dir := t.TempDir()
	// No snapshots: the journal must retain everything a cold shard
	// needs.
	opts := durable.Options{SnapshotEvery: 1 << 20, Fsync: durable.FsyncAlways}

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
