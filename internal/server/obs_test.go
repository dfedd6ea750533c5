package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nerglobalizer/internal/obs"
)

// These tests pin the service-level observability contract: /metrics
// and /statusz expose the pipeline and HTTP metric sets, saturation
// rejects with 503 + Retry-After instead of blocking, and scraping
// races cleanly against concurrent annotation.

func TestMetricsAndStatuszEndpoints(t *testing.T) {
	ts, srv := newTestServerFull(t)
	reg := obs.NewRegistry()
	srv.SetObserver(reg)
	defer srv.SetObserver(nil)

	postJSON(t, ts.URL+"/annotate", annotateRequest{
		Tweets: []string{"Cases rise in Italy again! Stay safe.", "omg Italy"},
	}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	// One scrape covers pipeline stages, caches, pool, and HTTP — the
	// acceptance floor is 12 distinct metric families.
	if n := strings.Count(text, "# TYPE "); n < 12 {
		t.Fatalf("/metrics exposes %d families, want >= 12", n)
	}
	for _, name := range []string{
		"ner_cycles_total",
		"ner_stage_local_seconds_bucket",
		"ner_pool_tasks_total",
		"ner_http_requests_total",
		"ner_server_cycles_total",
		"ner_batch_jobs_per_cycle_sum",
		"ner_http_annotate_seconds_count",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/statusz Content-Type = %q", ct)
	}
	var st StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 1 {
		t.Errorf("statusz cycles = %d", st.Cycles)
	}
	if st.StreamSize != 3 {
		t.Errorf("statusz stream_size = %d, want 3", st.StreamSize)
	}
	if st.Metrics.Counters["ner_http_requests_total"] < 2 {
		t.Errorf("statusz request counter = %d", st.Metrics.Counters["ner_http_requests_total"])
	}
	if st.Metrics.Counters["ner_cycles_total"] < 1 {
		t.Error("statusz missing pipeline cycle counter")
	}
	if share := st.ClusterReplayedShare; share < 0 || share > 1 ||
		(share > 0) != (st.Metrics.Counters["ner_cluster_merges_replayed_total"] > 0) {
		t.Errorf("statusz cluster_merges_replayed_share = %v with %d replayed merges",
			share, st.Metrics.Counters["ner_cluster_merges_replayed_total"])
	}
	if len(st.Traces) == 0 {
		t.Fatal("statusz has no cycle traces")
	}
	last := st.Traces[len(st.Traces)-1]
	if len(last.Spans) == 0 || last.WallSec <= 0 {
		t.Fatalf("statusz trace malformed: %+v", last)
	}
}

func TestStatuszWithoutRegistryKeepsShape(t *testing.T) {
	ts, _ := newTestServerFull(t)
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	// The document shape is identical with and without a registry, so
	// dashboards never branch on configuration.
	for _, key := range []string{"cycles", "stream_size", "candidates", "metrics", "traces"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("statusz missing key %q without registry", key)
		}
	}
	var st StatuszResponse
	if err := json.Unmarshal(mustMarshal(t, raw), &st); err != nil {
		t.Fatal(err)
	}
	if st.Metrics.Counters == nil || st.Traces == nil {
		t.Fatal("statusz fields must be empty, not null, without a registry")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHealthzContentType(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/healthz Content-Type = %q", ct)
	}
	if string(body) != "ok\n" {
		t.Fatalf("/healthz body = %q", body)
	}
}

// TestAnnotateSaturationRejects drives the admission bound through the
// handler: a server whose scheduler is held and whose queue is full
// must answer the overflow request with 503 + Retry-After and count
// the rejection, not park the request goroutine.
func TestAnnotateSaturationRejects(t *testing.T) {
	_, s := newTestServerFull(t)
	reg := obs.NewRegistry()
	s.SetObserver(reg)
	h := s.Handler()
	body := mustMarshal(t, annotateRequest{Tweets: []string{"overflow tweet"}})
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/annotate", bytes.NewReader(body)))
		return rec
	}
	// Hold the scheduler between two cycles and send one request more
	// than the queue holds: the admitted ones park until the release, so
	// the first answer can only be the overflow.
	release, held := make(chan struct{}), make(chan struct{})
	go s.Front().Exclusive(func() { close(held); <-release })
	<-held
	answers := make(chan *httptest.ResponseRecorder, queueDepth+1)
	for i := 0; i < queueDepth+1; i++ {
		go func() { answers <- post() }()
	}
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-answers:
	case <-time.After(5 * time.Second):
		t.Fatal("saturated /annotate blocked instead of rejecting")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if got := reg.Snapshot().Counters["ner_http_rejected_total"]; got != 1 {
		t.Fatalf("ner_http_rejected_total = %d, want 1", got)
	}
	close(release)
	for i := 0; i < queueDepth; i++ {
		if rec := <-answers; rec.Code != http.StatusOK {
			t.Fatalf("admitted request: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestRefusedCycleNotCounted: a cycle the replica refuses at a tripped
// gate takes no seq, so it must not move Cycles(), the cycle series or
// the tweet ID cursor — only its job learns of the refusal.
func TestRefusedCycleNotCounted(t *testing.T) {
	_, s := newTestServerFull(t)
	reg := obs.NewRegistry()
	s.SetObserver(reg)
	s.front.Gate.Trip()
	job := &Job{Tweets: [][][]string{{{"refused", "tweet"}}}, done: make(chan jobResult, 1)}
	if finish := s.runCycle([]*Job{job}); finish != nil {
		t.Fatal("a refused cycle left work for the tail")
	}
	if res := <-job.done; res.status != http.StatusInternalServerError {
		t.Fatalf("refused job answered %d %q, want 500", res.status, res.msg)
	}
	snap := reg.Snapshot()
	if s.Cycles() != 0 || s.nextID != 0 || snap.Counters["ner_server_cycles_total"] != 0 ||
		snap.Histograms["ner_batch_sentences_per_cycle"].Count != 0 {
		t.Fatalf("refused cycle counted: Cycles %d, nextID %d, ner_server_cycles_total %d, sentences-per-cycle count %d",
			s.Cycles(), s.nextID, snap.Counters["ner_server_cycles_total"], snap.Histograms["ner_batch_sentences_per_cycle"].Count)
	}
}

func TestAnnotateRejectsOversizedBody(t *testing.T) {
	ts := newTestServer(t)
	// A body past maxBodyBytes must 400 at the decoder, not be buffered.
	huge := `{"tweets": ["` + strings.Repeat("a", maxBodyBytes+1024) + `"]}`
	resp, err := http.Post(ts.URL+"/annotate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status = %d, want 400", resp.StatusCode)
	}
}

func TestCandidatesAndResetMethodHardening(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/candidates", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /candidates = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/reset")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reset = %d, want 405", resp.StatusCode)
	}
	for _, path := range []string{"/metrics", "/statusz"} {
		resp, err = http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestScrapeRacesAnnotate hammers /metrics and /statusz while
// concurrent clients annotate — the lock-free registry and the
// scheduler must stay race-clean (this is the -race smoke target).
func TestScrapeRacesAnnotate(t *testing.T) {
	ts, srv := newTestServerFull(t)
	reg := obs.NewRegistry()
	srv.SetObserver(reg)
	defer srv.SetObserver(nil)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/statusz"} {
		path := path
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := fmt.Sprintf("scraper client%d loves Italy", c)
			resp := postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{text}})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	s := reg.Snapshot()
	if s.Counters["ner_http_requests_total"] < clients {
		t.Fatalf("request counter = %d, want >= %d", s.Counters["ner_http_requests_total"], clients)
	}
	if s.Histograms["ner_http_annotate_seconds"].Count != clients {
		t.Fatalf("annotate latency count = %d, want %d",
			s.Histograms["ner_http_annotate_seconds"].Count, clients)
	}
}
