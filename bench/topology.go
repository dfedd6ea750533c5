package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"syscall"
	"time"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/fleet"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/server"
)

// Engine settings, exactly cmd/serve's defaults: -precision f64, best
// SIMD tier, -workers 0, -infer-batch 256, -batch-window 0, registry
// attached.
const (
	serveWorkers    = 0
	serveInferBatch = 256
)

// fleetShards is the size of the fleet topology.
const fleetShards = 2

// durableOptions is the commit path of the durable topology. The
// snapshot cadence is 128 rather than the default 64: it halves the
// volume written per run while the synchronous capture still costs a
// visible share of the drain.
var durableOptions = durable.Options{Fsync: durable.FsyncGroup, AsyncSnapshots: true, SnapshotEvery: 128}

// configureEngine applies the serving-time settings a checkpoint does
// not carry.
func configureEngine(g *core.Globalizer, workers int) error {
	g.SetWorkers(workers)
	g.SetInferBatch(serveInferBatch)
	return g.SetPrecision(nn.F64)
}

// sut is the system under test behind a real loopback listener. The
// load generator talks to URL and nothing else; the handles are for
// reading the program's own instruments after traffic has drained.
type sut struct {
	URL string
	Dir string // durable data dir, "" otherwise

	Server  *server.Server // single, durable
	Harness *fleet.Harness // fleet
	// Regs are the attached registries: the server's, or the router's
	// followed by one per shard.
	Regs []*obs.Registry

	ts     *httptest.Server
	closed bool
}

// loadEngine loads the checkpoint and applies the serving-time
// settings, process-wide ones included. workers is serveWorkers for
// the end-to-end run and 1 for the traced replay (so the per-surface
// stage sums are exclusive).
func loadEngine(ckpt string, workers int) (*core.Globalizer, error) {
	parallel.SetDefaultWorkers(workers)
	nn.SetMatMulWorkers(workers)
	g, err := checkpoint.LoadFile(ckpt)
	if err != nil {
		return nil, err
	}
	if err := configureEngine(g, workers); err != nil {
		return nil, err
	}
	return g, nil
}

// openServer builds the single-process server over a freshly loaded
// checkpoint, not yet listening. With dir set it opens that durable
// directory and waits until the server is warm: an empty directory
// starts cold, a used one restores its newest snapshot and re-executes
// the WAL tail. openS is the time StartDurable itself took (reading
// and decoding the snapshot and the WAL).
func openServer(ckpt string, workers int, dir string) (s *sut, openS float64, err error) {
	g, err := loadEngine(ckpt, workers)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(g)
	reg := obs.NewRegistry()
	srv.SetObserver(reg)
	s = &sut{Server: srv, Regs: []*obs.Registry{reg}, Dir: dir}
	if dir != "" {
		t0 := time.Now()
		if err := srv.StartDurable(dir, durableOptions); err != nil {
			s.Close()
			return nil, 0, err
		}
		openS = time.Since(t0).Seconds()
		if err := srv.WaitWarm(); err != nil {
			s.Close()
			return nil, 0, err
		}
	}
	return s, openS, nil
}

// listen puts the single-process server behind a loopback listener.
func (s *sut) listen() {
	s.ts = httptest.NewServer(s.Server.Handler())
	s.URL = s.ts.URL
}

// buildSUT builds the topology the way cmd/serve would, from a freshly
// loaded checkpoint, listening.
func buildSUT(topology, ckpt string, workers int) (*sut, error) {
	switch topology {
	case topoSingle, topoDurable:
		dir := ""
		if topology == topoDurable {
			var err error
			if dir, err = os.MkdirTemp("", "nerbench-durable-"); err != nil {
				return nil, err
			}
		}
		s, _, err := openServer(ckpt, workers, dir)
		if err != nil {
			if dir != "" {
				os.RemoveAll(dir)
			}
			return nil, err
		}
		s.listen()
		return s, nil
	case topoFleet:
		g, err := loadEngine(ckpt, workers)
		if err != nil {
			return nil, err
		}
		var cfgErr error
		h, err := fleet.NewHarness(g, fleetShards, func(r *core.Globalizer) {
			if err := configureEngine(r, workers); err != nil {
				cfgErr = err
			}
		})
		if err == nil && cfgErr != nil {
			h.Close()
			err = cfgErr
		}
		if err != nil {
			return nil, err
		}
		s := &sut{Harness: h, URL: h.URL()}
		reg := obs.NewRegistry()
		h.Router.SetObserver(reg)
		s.Regs = append(s.Regs, reg)
		for _, sh := range h.Shards {
			sreg := obs.NewRegistry()
			sh.SetObserver(sreg)
			s.Regs = append(s.Regs, sreg)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}
}

// Cycles is the number of execution cycles the front process has run.
func (s *sut) Cycles() int {
	if s.Harness != nil {
		return s.Harness.Router.Cycles()
	}
	return s.Server.Cycles()
}

// closeKeepingDir closes the sut but leaves its durable directory on
// disk and returns it: the resume rounds reopen it.
func (s *sut) closeKeepingDir() string {
	dir := s.Dir
	s.Dir = ""
	s.Close()
	return dir
}

// Close stops the listener and the serving goroutines and removes the
// durable directory. It is safe to call twice and on a partly built
// sut.
func (s *sut) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.ts != nil {
		s.ts.Close()
	}
	if s.Server != nil {
		s.Server.Close()
	}
	if s.Harness != nil {
		s.Harness.Close()
	}
	if s.Dir != "" {
		// Remove, then flush: what a durable run left dirty must not be
		// written back on another phase's or run's time.
		os.RemoveAll(s.Dir)
		syscall.Sync()
	}
}
