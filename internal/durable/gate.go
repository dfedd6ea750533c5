package durable

import (
	"net/http"
	"strconv"
	"sync/atomic"
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

// Replaying reports why the stream cannot be read — "" when it can —
// and the retry hint in seconds. Reads are refused only while recovery
// is rebuilding the stream: a half-replayed stream is a state no run
// ever served, while a tripped gate still holds everything it acked.
func (g *Gate) Replaying() (reason string, retryAfter int) {
	if g.replaying.Load() {
		return "replaying snapshot and WAL", replayRetryAfterSeconds
	}
	return "", 0
}

// Unready reports why mutations cannot be accepted — "" when they can —
// and the retry hint in seconds (0 = none: a tripped gate does not come
// back by waiting).
func (g *Gate) Unready() (reason string, retryAfter int) {
	if reason, retryAfter = g.Replaying(); reason == "" && g.broken.Load() {
		reason = "durability layer failed; restart from the data dir"
	}
	return reason, retryAfter
}

// Reject answers a mutation 503 when the gate is closed and reports
// whether it did.
func (g *Gate) Reject(w http.ResponseWriter) bool { return refuse(w, g.Unready) }

// RejectReplaying answers a stream read 503 while recovery replays and
// reports whether it did.
func (g *Gate) RejectReplaying(w http.ResponseWriter) bool { return refuse(w, g.Replaying) }

func refuse(w http.ResponseWriter, closed func() (string, int)) bool {
	reason, retryAfter := closed()
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
