package durable

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
)

// replayRetryAfterSeconds is the Retry-After hint while recovery runs:
// replay finishes on its own, so a short back-off suffices.
const replayRetryAfterSeconds = 1

// Gate is a serving process's readiness state, the one copy the single
// server, the router and every shard share. It is closed while startup
// recovery replays (so load balancers keep routing elsewhere and
// mutations are refused with a retry hint) and closed for good once the
// durability layer failed: in-memory state has then advanced past what
// disk holds, so acking anything further would let a restart silently
// drop it. The zero value is an open gate — a process without a data
// dir never closes it.
type Gate struct {
	replaying atomic.Bool
	broken    atomic.Bool
	done      chan struct{} // nil until Recover
	err       error         // recovery's error; read after done closes
}

// Recover runs a process's startup recovery on its own goroutine behind
// the gate: it reports replaying until recovery returns, and an error
// trips it for good. Call once, before serving traffic.
func (g *Gate) Recover(recovery func() error) {
	g.done = make(chan struct{})
	g.replaying.Store(true)
	go func() {
		defer close(g.done)
		defer g.replaying.Store(false)
		if err := recovery(); err != nil {
			g.err = err
			g.broken.Store(true)
		}
	}()
}

// WaitWarm blocks until recovery completes and returns its error, if
// any; without Recover it returns at once. A process's Close calls it
// so the log is never sealed under a running replay.
func (g *Gate) WaitWarm() error {
	if g.done == nil {
		return nil
	}
	<-g.done
	return g.err
}

// Trip closes the gate for good after an append, fsync or recovery
// failure.
func (g *Gate) Trip() { g.broken.Store(true) }

// Unready reports why mutations cannot be accepted — "" when they can —
// and the retry hint in seconds (0 = none: a tripped gate does not come
// back by waiting).
func (g *Gate) Unready() (reason string, retryAfter int) {
	if g.replaying.Load() {
		return "replaying snapshot and WAL", replayRetryAfterSeconds
	}
	if g.broken.Load() {
		return "durability layer failed; restart from the data dir", 0
	}
	return "", 0
}

// Reject answers 503 when the gate is closed and reports whether it did.
func (g *Gate) Reject(w http.ResponseWriter) bool {
	reason, retryAfter := g.Unready()
	if reason == "" {
		return false
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	http.Error(w, reason, http.StatusServiceUnavailable)
	return true
}

// ServeHealthz is the GET /healthz handler: 503 with a JSON status while
// replaying or after the gate tripped, the plain 200 "ok" once warm.
func (g *Gate) ServeHealthz(w http.ResponseWriter, r *http.Request) {
	status := ""
	if g.replaying.Load() {
		status = "{\"status\":\"replaying\"}\n"
	} else if g.broken.Load() {
		status = "{\"status\":\"durability_failed\"}\n"
	}
	if status != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(status))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// Resume is the engine-bearing half of startup recovery, shared by the
// single server and the shard: it restores the snapshot's warm state
// into g, then has apply re-execute each WAL tail record and checks what
// it rendered against the logged annotations — a divergence means this
// process is not running the configuration that wrote the log, and
// recovery fails rather than serving a silently different stream. It
// returns the provenance chain through the last replayed cycle. The
// caller holds the lock that serializes cycles on g and restores its
// own counters from rec.Snapshot before the call, so apply continues
// from them.
func (l *Log) Resume(rec *Recovery, kind int, g *core.Globalizer, apply func(*CycleRecord) []SentenceAnnotation) (*Provenance, error) {
	t0 := time.Now()
	prov := NewProvenance()
	if snap := rec.Snapshot; snap != nil {
		if snap.Kind != kind {
			return nil, fmt.Errorf("durable: data dir was written by process kind %d, not kind %d", snap.Kind, kind)
		}
		if snap.Warm == nil {
			return nil, fmt.Errorf("durable: snapshot at seq %d has no engine state", snap.Seq)
		}
		if err := g.RestoreWarmState(snap.Warm); err != nil {
			return nil, err
		}
		prov = RestoreProvenance(snap.Provenance)
	}
	for _, cr := range rec.Tail {
		if !AnnotationsEqual(apply(cr), cr.Annotations) {
			return nil, fmt.Errorf("durable: replay of cycle %d diverged from the logged annotations — model or configuration mismatch", cr.Seq)
		}
		prov.AppendCycle(cr.Seq, cr.Annotations)
	}
	l.ObserveReplay(len(rec.Tail), time.Since(t0))
	return prov, nil
}
