package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
)

// singleSentenceBodies returns n one-tweet /annotate bodies from the
// synthetic stream whose tweet tokenizes to exactly one sentence, so a
// stream built from them has stream_size == tweets.
func singleSentenceBodies(t *testing.T, n int) []string {
	t.Helper()
	var out []string
	for _, body := range streamBodies(4*n, 1) {
		var req struct {
			Tweets []string `json:"tweets"`
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if len(tokenizer.SplitSentences(tokenizer.Tokenize(req.Tweets[0]))) == 1 {
			out = append(out, body)
		}
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("only %d single-sentence tweets in the synthetic stream, want %d", len(out), n)
	return nil
}

// cloneEngine copies a trained engine through a checkpoint, as the
// harness does for its replicas.
func cloneEngine(t *testing.T, g *core.Globalizer) *core.Globalizer {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	clone, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// TestFleetResetDuringAnnotate lands a POST /reset in the middle of two
// clients' annotate traffic, round after round, on a 2-shard fleet and
// on the single server. A reset runs between two cycles, so whatever
// the interleaving every request answers 200, and once traffic stops
// the stream is exactly the tweets ingested after the reset: the next
// tweet takes the next ID, and /entities equals a fresh single server
// fed that stream. Before resets went through the scheduler, the
// router's could straddle a cycle — pre-reset IDs published onto the
// fresh stream, or a stale seq committed to shards already at 0.
func TestFleetResetDuringAnnotate(t *testing.T) {
	g := trainedPipeline(t)
	bodies := singleSentenceBodies(t, 13)
	probe, bodies := bodies[0], bodies[1:]

	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	single := cloneEngine(t, g)
	srv := server.New(single)
	defer srv.Close()

	for _, target := range []struct {
		name string
		url  string
		// view reads the engine that holds the whole stream, in order. The
		// shard's goes through the replica's engine lock, which orders the
		// read after the cycles that wrote the stream; the single server's
		// HTTP exchange already does (the race detector cannot see through
		// the shard's hijacked frame connections).
		view func(func(*core.Globalizer))
	}{
		{"fleet", h.URL(), h.Shards[0].rep.View},
		{"single", httptestServer(t, srv.Handler()), func(fn func(*core.Globalizer)) { fn(single) }},
	} {
		t.Run(target.name, func(t *testing.T) {
			const rounds, clients = 40, 2
			perClient := len(bodies) / clients
			for round := 0; round < rounds; round++ {
				// The reset is sent when the first client is about to post
				// its (round mod perClient)-th tweet, so it lands at a
				// different point of the traffic each round.
				trigger := make(chan struct{})
				var once sync.Once
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i, body := range bodies[c*perClient : (c+1)*perClient] {
							if i == round%perClient {
								once.Do(func() { close(trigger) })
							}
							resp, err := http.Post(target.url+"/annotate", "application/json", strings.NewReader(body))
							if err != nil {
								t.Errorf("round %d client %d: %v", round, c, err)
								return
							}
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								t.Errorf("round %d client %d request %d: status %d", round, c, i, resp.StatusCode)
							}
						}
					}(c)
				}
				<-trigger
				if status, body, _ := postBody(t, target.url+"/reset", ""); status != http.StatusOK {
					t.Errorf("round %d: reset: status %d: %s", round, status, body)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}

				status, body, _ := postBody(t, target.url+"/annotate", probe)
				if status != http.StatusOK {
					t.Fatalf("round %d: annotate after quiescence: status %d: %s", round, status, body)
				}
				var ar fleetAnnotateResponse
				if err := json.Unmarshal([]byte(body), &ar); err != nil {
					t.Fatal(err)
				}
				if len(ar.Sentences) != 1 || ar.Sentences[0].TweetID != ar.StreamSize-1 {
					t.Fatalf("round %d: after a mid-traffic reset the next tweet got %+v on a stream of %d", round, ar.Sentences, ar.StreamSize)
				}

				// The post-reset stream, read back from the engine that holds
				// it, through a fresh single server.
				var stream []string
				var keys []types.SentenceKey
				target.view(func(g *core.Globalizer) {
					tb := g.TweetBase()
					keys = tb.Keys()
					for _, key := range keys {
						raw, _ := json.Marshal(map[string][]string{"tweets": {strings.Join(tb.Get(key).Sentence.Tokens, " ")}})
						stream = append(stream, string(raw))
					}
				})
				for i, key := range keys {
					if key.TweetID != i || key.SentID != 0 {
						t.Fatalf("round %d: stream position %d holds sentence %v", round, i, key)
					}
				}
				if len(stream) != ar.StreamSize {
					t.Fatalf("round %d: engine holds %d sentences, /annotate reported %d", round, len(stream), ar.StreamSize)
				}
				_, _, want := runSingle(t, g, stream)
				if got := getBody(t, target.url+"/entities"); got != want {
					t.Fatalf("round %d: /entities differs from a fresh single server fed the post-reset stream\n%s: %s\nfresh:  %s", round, target.name, got, want)
				}
			}
		})
	}
}
