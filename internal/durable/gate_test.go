package durable

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func healthz(g *Gate) (int, string) {
	rec := httptest.NewRecorder()
	g.ServeHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return rec.Code, rec.Body.String()
}

// TestGateLifecycle walks the readiness gate through its states: open
// by default, closed with a retry hint while recovery runs — and
// WaitWarm, which every process's Close calls before sealing its log,
// blocks for exactly that long — open again once it succeeds, closed
// for good after a trip.
func TestGateLifecycle(t *testing.T) {
	var g Gate
	if why, _ := g.Unready(); why != "" {
		t.Fatalf("zero gate is closed: %q", why)
	}
	if err := g.WaitWarm(); err != nil {
		t.Fatalf("WaitWarm without Recover: %v", err)
	}

	release := make(chan struct{})
	g.Recover(func() error { <-release; return nil })
	if why, retry := g.Unready(); why == "" || retry != 1 {
		t.Fatalf("replaying gate: reason %q, retry %d", why, retry)
	}
	if code, body := healthz(&g); code != http.StatusServiceUnavailable || body != "{\"status\":\"replaying\"}\n" {
		t.Fatalf("replaying healthz = %d %q", code, body)
	}
	rec := httptest.NewRecorder()
	if !g.Reject(rec) || rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("replaying Reject = %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	warm := make(chan error, 1)
	go func() { warm <- g.WaitWarm() }()
	select {
	case err := <-warm:
		t.Fatalf("WaitWarm returned %v under a running recovery", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-warm; err != nil {
		t.Fatalf("WaitWarm after a clean recovery: %v", err)
	}
	if code, body := healthz(&g); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("warm healthz = %d %q", code, body)
	}
	if g.Reject(httptest.NewRecorder()) {
		t.Fatal("warm gate rejects")
	}

	g.Trip()
	if why, retry := g.Unready(); why == "" || retry != 0 {
		t.Fatalf("tripped gate: reason %q, retry %d", why, retry)
	}
	if code, body := healthz(&g); code != http.StatusServiceUnavailable || body != "{\"status\":\"durability_failed\"}\n" {
		t.Fatalf("tripped healthz = %d %q", code, body)
	}
}

// TestGateRecoveryErrorIsSticky: a failed recovery trips the gate, and
// WaitWarm hands every caller the error.
func TestGateRecoveryErrorIsSticky(t *testing.T) {
	var g Gate
	boom := errors.New("snapshot does not match this engine")
	g.Recover(func() error { return boom })
	for i := 0; i < 2; i++ {
		if err := g.WaitWarm(); !errors.Is(err, boom) {
			t.Fatalf("WaitWarm #%d = %v, want the recovery error", i, err)
		}
	}
	if why, retry := g.Unready(); why == "" || retry != 0 {
		t.Fatalf("gate after a failed recovery: reason %q, retry %d", why, retry)
	}
	rec := httptest.NewRecorder()
	if !g.Reject(rec) || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("tripped Reject = %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}
