package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/transformer"
)

var (
	srvOnce sync.Once
	srvG    *core.Globalizer
)

func trainedPipeline(t *testing.T) *core.Globalizer {
	t.Helper()
	srvOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Encoder = transformer.Config{
			Dim: 16, Heads: 2, Layers: 1, FFDim: 32, MaxLen: 20,
			VocabBuckets: 256, CharBuckets: 64, Dropout: 0, Seed: 3,
		}
		cfg.PretrainEpochs = 1
		cfg.FineTuneEpochs = 6
		cfg.MaxTriplets = 1500
		cfg.PhraseTrain.Epochs = 10
		cfg.ClassifierTrain.Epochs = 30
		cfg.EnsembleSize = 1
		g := core.New(cfg)
		g.PretrainEncoder(corpus.PretrainTweets(150, 5))
		train := corpus.Generate(corpus.StreamConfig{
			Name: "train", NumTweets: 250, NumTopics: 2,
			PerTopicEntities: [4]int{10, 8, 6, 6},
			ZipfExponent:     1.1, TypoRate: 0.02, LowercaseRate: 0.3,
			NonEntityRate: 0.3, AmbiguousRate: 0.1, UninformativeRate: 0.1,
			Ambiguity: true, Streaming: false, Seed: 6,
		})
		g.FineTuneLocal(train.Sentences)
		g.TrainGlobal(train.Sentences)
		srvG = g
	})
	return srvG
}

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerFull(t)
	return ts
}

func newTestServerFull(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	g := trainedPipeline(t)
	g.Reset()
	srv := New(g)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAnnotateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/annotate", annotateRequest{
		Tweets: []string{"Cases rise in Italy again! Stay safe.", "omg Italy"},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out AnnotateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// First tweet has two sentences, second one: three sentence records.
	if len(out.Sentences) != 3 {
		t.Fatalf("sentences = %d: %+v", len(out.Sentences), out.Sentences)
	}
	if out.StreamSize != 3 {
		t.Fatalf("stream size = %d", out.StreamSize)
	}
	for _, s := range out.Sentences {
		for _, e := range s.Entities {
			if e.Start < 0 || e.End > len(s.Tokens) || e.Type == "O" {
				t.Fatalf("bad entity %+v", e)
			}
		}
	}
}

func TestAnnotateAccumulatesStream(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{"hello world"}}).Body.Close()
	resp := postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{"another tweet"}})
	defer resp.Body.Close()
	var out AnnotateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.StreamSize != 2 {
		t.Fatalf("stream should accumulate, size = %d", out.StreamSize)
	}
}

func TestAnnotateRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/annotate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/annotate", annotateRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/annotate", "application/json", bytes.NewReader([]byte("{broken")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON status = %d", resp.StatusCode)
	}
}

func TestCandidatesAndReset(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	postJSON(t, ts.URL+"/annotate", annotateRequest{
		Tweets: []string{"governor Brelin gives an update", "thank you Brelin for your leadership"},
	}).Body.Close()

	resp, err := http.Get(ts.URL + "/candidates")
	if err != nil {
		t.Fatal(err)
	}
	var cands []CandidateJSON
	if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Reset clears state.
	rr, err := http.Post(ts.URL+"/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	resp, err = http.Get(ts.URL + "/candidates")
	if err != nil {
		t.Fatal(err)
	}
	cands = nil
	if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cands) != 0 {
		t.Fatalf("candidates after reset = %d", len(cands))
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestConcurrentAnnotateMicroBatches fires concurrent /annotate
// requests at a parked scheduler: every client must get its own tweets
// back annotated, the stream must accumulate all of them, and the
// requests that queued while the scheduler was busy must run as exactly
// one execution cycle.
func TestConcurrentAnnotateMicroBatches(t *testing.T) {
	ts, srv := newTestServerFull(t)
	release, held := make(chan struct{}), make(chan struct{})
	go srv.Front().Exclusive(func() { close(held); <-release })
	<-held

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := fmt.Sprintf("client%d says Italy is lovely", c)
			resp := postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{text}})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			var out AnnotateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			if len(out.Sentences) != 1 {
				errs <- fmt.Errorf("client %d: %d sentences", c, len(out.Sentences))
				return
			}
			if got := out.Sentences[0].Tokens[0]; got != fmt.Sprintf("client%d", c) {
				errs <- fmt.Errorf("client %d: got someone else's tweet back (%q)", c, got)
			}
		}()
	}
	for len(srv.front.jobs) < clients {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Cycles(); got != 1 {
		t.Fatalf("%d requests queued behind a busy scheduler ran as %d cycles, want 1", clients, got)
	}

	resp := postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{"final probe"}})
	var out AnnotateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.StreamSize != clients+1 {
		t.Fatalf("stream size = %d, want %d", out.StreamSize, clients+1)
	}
}

// TestCloseRejectsRequests verifies shutdown: after Close, /annotate
// fails fast with 503 instead of hanging on a dead scheduler.
func TestCloseRejectsRequests(t *testing.T) {
	ts, srv := newTestServerFull(t)
	srv.Close()
	resp := postJSON(t, ts.URL+"/annotate", annotateRequest{Tweets: []string{"too late"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after Close = %d, want 503", resp.StatusCode)
	}
}
