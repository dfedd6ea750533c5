package fleet

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"nerglobalizer/internal/durable"
)

// TestGroupCommitPipelinedFleetHammer drives a durable group-commit
// fleet with concurrent clients — the -race hammer for the whole
// commit path at once: group-commit WAL tickets, the snapshot writers,
// the shard's unlock-before-fsync-wait commit handler, and the router's
// commit fan-outs on the front's tail. Every acked request must then be
// recoverable: a restart from the same data dirs has to reproduce the
// final /entities body byte for byte.
func TestGroupCommitPipelinedFleetHammer(t *testing.T) {
	g := trainedPipeline(t)
	dir := t.TempDir()
	opts := durable.Options{SnapshotEvery: 3, Fsync: durable.FsyncGroup}

	h1, err := NewHarness(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.StartDurable(dir, opts); err != nil {
		h1.Close()
		t.Fatal(err)
	}

	bodies := streamBodies(24, 2)
	const clients = 6
	perClient := len(bodies) / clients
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, body := range bodies[c*perClient : (c+1)*perClient] {
				status, resp, _ := postBody(t, h1.URL()+"/annotate", body)
				if status != http.StatusOK {
					errs[c] = fmt.Errorf("status %d: %s", status, resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			h1.Close()
			t.Fatalf("client %d: %v", c, err)
		}
	}

	want := getBody(t, h1.URL()+"/entities")
	wantCands := getBody(t, h1.URL()+"/candidates")
	cycles := h1.Router.Cycles()
	h1.Close()

	h2, err := NewHarness(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.StartDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if got := h2.Router.Cycles(); got != cycles {
		t.Fatalf("recovered cycle counter = %d, want %d", got, cycles)
	}
	if got := getBody(t, h2.URL()+"/entities"); got != want {
		t.Fatalf("entities diverged after group-commit restart\nwant: %s\ngot:  %s", want, got)
	}
	if got := getBody(t, h2.URL()+"/candidates"); got != wantCands {
		t.Fatalf("candidates diverged after group-commit restart\nwant: %s\ngot:  %s", got, wantCands)
	}
}
