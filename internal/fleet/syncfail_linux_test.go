package fleet

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/server"
)

// breakWALSync makes every later fsync of the WAL segment this process
// holds open under dir fail, the way a dying disk would and without the
// log's cooperation: it finds the segment's descriptor in /proc/self/fd
// and puts a pipe under the same number, which still takes the appended
// frames and answers fsync with EINVAL. Call it between two cycles.
func breakWALSync(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the WAL's descriptor in: %v", err)
	}
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(target) != dir || !strings.HasPrefix(filepath.Base(target), "wal-") {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close(); w.Close() })
		if err := syscall.Dup3(int(w.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no WAL segment open under %s", dir)
}

// TestSyncFailureTripsGate fails the syncer's fsync under the two
// processes that hold a replica. The append of the cycle it hits still
// succeeds — the failure arrives through the durability wait, on the
// server's tail and on the shard's frame goroutine — and the wait trips
// the gate itself: that cycle answers 500 and acks nothing, everything
// after it meets the closed gate (503, /healthz durability_failed), and
// reads keep answering.
func TestSyncFailureTripsGate(t *testing.T) {
	const tweet = `{"tweets":["Cases rise in Italy again"]}`

	t.Run("server", func(t *testing.T) {
		srv := server.New(cloneEngine(t, trainedPipeline(t)))
		defer srv.Close()
		dir := t.TempDir()
		if err := srv.StartDurable(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		url := httptestServer(t, srv.Handler())
		if status, body, _ := postBody(t, url+"/annotate", tweet); status != http.StatusOK {
			t.Fatalf("cycle 1: status %d: %s", status, body)
		}
		breakWALSync(t, dir)
		if status, body, _ := postBody(t, url+"/annotate", tweet); status != http.StatusInternalServerError || !strings.Contains(body, "durability failure") {
			t.Fatalf("cycle whose fsync failed: status %d: %s, want 500 durability failure", status, body)
		}
		for i := 0; i < 2; i++ {
			if status, body, hdr := postBody(t, url+"/annotate", tweet); status != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "" {
				t.Fatalf("request %d after the failure: status %d: %s, want the tripped gate's 503", i, status, body)
			}
		}
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		health, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || string(health) != "{\"status\":\"durability_failed\"}\n" {
			t.Fatalf("/healthz: status %d: %q", resp.StatusCode, health)
		}
		if srv.Cycles() != 2 {
			t.Fatalf("%d cycles ran, want the acked one and the failed one", srv.Cycles())
		}
		getBody(t, url+"/entities")
	})

	t.Run("shard", func(t *testing.T) {
		s, c := oneShard(t, nil)
		dir := filepath.Join(t.TempDir(), "shard")
		if err := s.StartDurable(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitWarm(); err != nil {
			t.Fatal(err)
		}
		cycles := testCycles(t, 6, 2)
		commit := func(seq uint64) error {
			_, err := c.Commit(&CommitRequest{Seq: seq, Sentences: cycles[seq-1]})
			return err
		}
		if err := commit(1); err != nil {
			t.Fatal(err)
		}
		breakWALSync(t, dir)
		if err := commit(2); err == nil || !strings.Contains(err.Error(), "status 500: durability failure") {
			t.Fatalf("commit whose fsync failed: %v, want status 500 durability failure", err)
		}
		var ue *ShardUnavailableError
		if err := commit(3); !errors.As(err, &ue) {
			t.Fatalf("after the failure: %v, want the tripped gate's refusal", err)
		}
		if err := c.Ready(); err == nil {
			t.Fatal("/healthz still answers ready")
		}
		if _, err := c.Entities(); err != nil {
			t.Fatalf("entities after the failure: %v", err)
		}
	})
}
