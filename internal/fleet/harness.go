package fleet

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
)

// Harness is an in-process fleet: a router plus K shard replicas of
// one trained engine, served over loopback httptest listeners. It is
// what the identity tests and bench/'s long-stream-fleet workload run
// against — real sockets, real upgrades, real frames, no separate
// processes.
type Harness struct {
	Router *Router
	Shards []*Shard

	servers   []*httptest.Server
	routerSrv *httptest.Server
}

// NewHarness replicates the trained engine K times via a checkpoint
// round-trip (the same clone path a real fleet uses), assigns shard
// ownership 0..K-1, and wires a router over loopback HTTP servers.
// configure, if non-nil, runs on every replica before serving — the
// hook for applying homogeneous fleet settings (workers, precision,
// inference batching).
func NewHarness(g *core.Globalizer, k int, configure func(*core.Globalizer)) (*Harness, error) {
	if k < 1 {
		return nil, fmt.Errorf("fleet: harness needs at least one shard, got %d", k)
	}
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, g); err != nil {
		return nil, fmt.Errorf("fleet: harness checkpoint: %w", err)
	}
	h := &Harness{}
	clients := make([]*ShardClient, k)
	for i := 0; i < k; i++ {
		replica, err := checkpoint.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("fleet: harness replica %d: %w", i, err)
		}
		if configure != nil {
			configure(replica)
		}
		shard, err := NewShard(replica, i, k, map[string]string{"harness": "true"})
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("fleet: harness shard %d: %w", i, err)
		}
		srv := httptest.NewServer(shard.Handler())
		h.Shards = append(h.Shards, shard)
		h.servers = append(h.servers, srv)
		clients[i] = NewShardClient(i, srv.URL)
	}
	h.Router = NewRouter(clients)
	h.routerSrv = httptest.NewServer(h.Router.Handler())
	return h, nil
}

// StartDurable turns on durability for the whole harness fleet: each
// shard persists under dataDir/shard-<i> and the router journals under
// dataDir/router. It blocks until every member has finished recovery —
// shards first (the router's re-drive needs them answering), then the
// router.
func (h *Harness) StartDurable(dataDir string, opts durable.Options) error {
	for i, shard := range h.Shards {
		if err := shard.StartDurable(filepath.Join(dataDir, fmt.Sprintf("shard-%d", i)), opts); err != nil {
			return err
		}
	}
	for i, shard := range h.Shards {
		if err := shard.WaitWarm(); err != nil {
			return fmt.Errorf("fleet: harness shard %d recovery: %w", i, err)
		}
	}
	if err := h.Router.StartDurable(filepath.Join(dataDir, "router"), opts); err != nil {
		return err
	}
	if err := h.Router.WaitWarm(); err != nil {
		return fmt.Errorf("fleet: harness router recovery: %w", err)
	}
	return nil
}

// URL returns the router's base URL.
func (h *Harness) URL() string { return h.routerSrv.URL }

// Close tears the fleet down: router first (stops the scheduler and
// its shard connections), then the shard listeners, then the shards
// (frame connections still open, durability state).
func (h *Harness) Close() {
	if h.routerSrv != nil {
		h.routerSrv.Close()
	}
	if h.Router != nil {
		h.Router.Close()
	}
	for _, srv := range h.servers {
		srv.Close()
	}
	for _, s := range h.Shards {
		s.Close()
	}
}
