package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/transformer"
	"nerglobalizer/internal/types"
)

var (
	fleetOnce sync.Once
	fleetG    *core.Globalizer
)

// trainedPipeline trains one tiny pipeline per test binary; tests
// clone it (harness) or Reset it (single-process comparisons).
func trainedPipeline(t *testing.T) *core.Globalizer {
	t.Helper()
	fleetOnce.Do(func() {
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
		fleetG = g
	})
	return fleetG
}

// streamBodies renders a deterministic synthetic stream as /annotate
// request payloads, several tweets per request.
func streamBodies(n, perReq int) []string {
	test := corpus.Generate(corpus.StreamConfig{
		Name: "fleettest", NumTweets: n, NumTopics: 2,
		PerTopicEntities: [4]int{8, 6, 5, 5},
		ZipfExponent:     1.1, TypoRate: 0.05, LowercaseRate: 0.3,
		NonEntityRate: 0.3, AmbiguousRate: 0.1, UninformativeRate: 0.15,
		Ambiguity: true, Streaming: true, Seed: 17,
	})
	var raws []string
	for _, s := range test.Sentences {
		var buf bytes.Buffer
		for i, tok := range s.Tokens {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(tok)
		}
		raws = append(raws, buf.String())
	}
	return tweetBodies(raws, perReq)
}

// tweetBodies renders raw tweets as /annotate payloads, perReq tweets
// per request.
func tweetBodies(raws []string, perReq int) []string {
	var bodies []string
	for start := 0; start < len(raws); start += perReq {
		end := start + perReq
		if end > len(raws) {
			end = len(raws)
		}
		b, _ := json.Marshal(map[string][]string{"tweets": raws[start:end]})
		bodies = append(bodies, string(b))
	}
	return bodies
}

func postBody(t *testing.T, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// httptestServer serves a handler on loopback for the test's lifetime.
func httptestServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// runSingle feeds the bodies to a fresh single-process server and
// returns the per-request responses plus the final /candidates and
// /entities bodies.
func runSingle(t *testing.T, g *core.Globalizer, bodies []string) (resps []string, cands, ents string) {
	t.Helper()
	srv := server.New(g)
	defer srv.Close()
	hs := httptestServer(t, srv.Handler())
	for _, body := range bodies {
		status, resp, _ := postBody(t, hs+"/annotate", body)
		if status != http.StatusOK {
			t.Fatalf("single-process annotate: status %d: %s", status, resp)
		}
		resps = append(resps, resp)
	}
	return resps, getBody(t, hs+"/candidates"), getBody(t, hs+"/entities")
}

// TestFleetIdentity is the tentpole contract: for every shard count,
// the fleet's responses on the same request sequence are byte-identical
// to the single-process server's — per-request /annotate bodies, the
// final /candidates body, and the final whole-stream /entities body. A
// stream of single-tweet requests runs beside the bulk one, and every
// shard tags every cycle's batch itself, once per cycle.
//
// The stream ends on tweets whose entity tokens are all-caps, mixed-case
// and non-ASCII, some seen again in another casing. The router renders
// the surface each shard shipped — the trie's canonical form — where the
// single server lower-cases the sentence's own tokens, so these pin the
// two to the same string end to end, Unicode case mapping included
// ("İ" lower-cases to two code points).
func TestFleetIdentity(t *testing.T) {
	g := trainedPipeline(t)
	casedTweets := []string{
		"interview with İstanbul about ÉCOLE tonight",
		"hospitals across NEW york are full",
		"thank you İSTANBUL for your leadership",
		"hospitals across école are full",
		"ÉCOLE tested positive yesterday",
		"new YORK closes its borders",
	}
	for _, perReq := range []int{3, 1} {
		bodies := append(streamBodies(24, perReq), tweetBodies(casedTweets, perReq)...)
		want, wantCands, wantEnts := runSingle(t, g, bodies)
		for _, tok := range []string{"İstanbul", "ÉCOLE", "NEW"} {
			if surface := `"surface":"` + strings.ToLower(tok) + `"`; !strings.Contains(wantEnts, surface) {
				t.Fatalf("the stream no longer yields an entity on %q: /entities carries no %s", tok, surface)
			}
		}

		for _, k := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("shards=%d/tweets=%d", k, perReq), func(t *testing.T) {
				h, err := NewHarness(g, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				regs := make([]*obs.Registry, k)
				for i, sh := range h.Shards {
					regs[i] = obs.NewRegistry()
					sh.SetObserver(regs[i])
				}
				for i, body := range bodies {
					status, resp, _ := postBody(t, h.URL()+"/annotate", body)
					if status != http.StatusOK {
						t.Fatalf("request %d: status %d: %s", i, status, resp)
					}
					if resp != want[i] {
						t.Fatalf("request %d: fleet response differs from single-process\nfleet:  %s\nsingle: %s", i, resp, want[i])
					}
				}
				if cands := getBody(t, h.URL()+"/candidates"); cands != wantCands {
					t.Fatalf("candidates differ\nfleet:  %s\nsingle: %s", cands, wantCands)
				}
				if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
					t.Fatalf("entities differ\nfleet:  %s\nsingle: %s", ents, wantEnts)
				}
				for i, reg := range regs {
					if n := reg.Histogram("ner_fleet_shard_tag_seconds", "", nil).Count(); n != int64(len(bodies)) {
						t.Fatalf("shard %d of %d tagged %d batches over %d cycles", i, k, n, len(bodies))
					}
				}
			})
		}
	}
}

// fleetAnnotateResponse decodes fleet/server /annotate bodies in tests.
type fleetAnnotateResponse struct {
	Sentences  []server.SentenceJSON `json:"sentences"`
	StreamSize int                   `json:"stream_size"`
	Candidates int                   `json:"candidates"`
}

// TestFleetConcurrentIdentity hammers a 3-shard fleet with concurrent
// clients, then verifies the fleet's final state equals a
// single-process engine replaying the accepted stream in the order the
// router ingested it. The final entity map is a pure function of
// sentence insertion order, so the replay reconstructs it exactly.
// Under -race this doubles as the router/shard concurrency hammer.
func TestFleetConcurrentIdentity(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	bodies := streamBodies(24, 2)
	const clients = 6
	perClient := len(bodies) / clients
	var wg sync.WaitGroup
	responses := make([][]string, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, body := range bodies[c*perClient : (c+1)*perClient] {
				resp, err := http.Post(h.URL()+"/annotate", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					errs[c] = err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
					return
				}
				responses[c] = append(responses[c], string(b))
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Tokens per ingested sentence, from the responses.
	tokens := map[types.SentenceKey][]string{}
	for _, rs := range responses {
		for _, r := range rs {
			var ar fleetAnnotateResponse
			if err := json.Unmarshal([]byte(r), &ar); err != nil {
				t.Fatal(err)
			}
			for _, s := range ar.Sentences {
				tokens[types.SentenceKey{TweetID: s.TweetID, SentID: s.SentID}] = s.Tokens
			}
		}
	}

	// The fleet's accepted insertion order.
	var ents []server.SentenceEntitiesJSON
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/entities")), &ents); err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(tokens) {
		t.Fatalf("stream has %d sentences, responses covered %d", len(ents), len(tokens))
	}

	// Replay through a single-process engine and compare annotations.
	var replay []*types.Sentence
	for _, se := range ents {
		key := types.SentenceKey{TweetID: se.TweetID, SentID: se.SentID}
		toks, ok := tokens[key]
		if !ok {
			t.Fatalf("no tokens recorded for %v", key)
		}
		replay = append(replay, &types.Sentence{TweetID: se.TweetID, SentID: se.SentID, Tokens: toks})
	}
	g.Reset()
	final := g.ProcessTagged(replay, nil, core.ModeFull)
	for i, sent := range replay {
		var wantEnts []server.EntityJSON
		for _, e := range final[sent.Key()] {
			wantEnts = append(wantEnts, server.EntityJSON{
				Start:   e.Start,
				End:     e.End,
				Type:    e.Type.String(),
				Surface: sent.SurfaceAt(e.Span),
			})
		}
		got := ents[i].Entities
		if len(wantEnts) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, wantEnts) {
			t.Fatalf("sentence %v: fleet %+v, replay %+v", sent.Key(), got, wantEnts)
		}
	}
}

// TestFleetEntitiesDuringAnnotate reads /entities in a loop while two
// clients annotate: the read is a fan-in over shards that cycles are
// writing to, and it shares nothing with the router's own cycle state.
// Run under -race. A read that lands between two shards' commits may see
// unequal stream sizes and get a 502; any 200 must be well-formed, and
// the read after traffic stops complete.
func TestFleetEntitiesDuringAnnotate(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	bodies := streamBodies(60, 1)
	const clients = 2
	perClient := len(bodies) / clients
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reads := 0
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(h.URL() + "/entities")
			if err != nil {
				t.Errorf("GET /entities: %v", err)
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("GET /entities: %v", err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				var ents []server.SentenceEntitiesJSON
				if err := json.Unmarshal(b, &ents); err != nil {
					t.Errorf("GET /entities: %v in %s", err, b)
					return
				}
				reads++
			case http.StatusBadGateway:
			default:
				t.Errorf("GET /entities: status %d: %s", resp.StatusCode, b)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			for _, body := range bodies[c*perClient : (c+1)*perClient] {
				resp, err := http.Post(h.URL()+"/annotate", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				b, _ := io.ReadAll(resp.Body) // the status below is the check
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if reads == 0 {
		t.Fatal("no /entities read succeeded during annotate traffic")
	}
	var ents []server.SentenceEntitiesJSON
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/entities")), &ents); err != nil {
		t.Fatal(err)
	}
	if len(ents) < len(bodies) {
		t.Fatalf("final /entities lists %d sentences for %d tweets", len(ents), len(bodies))
	}
}

// TestFleetPartialDegradation saturates one shard and verifies the
// router propagates 503 + Retry-After without stalling the healthy
// shards, queues the missed commits, refuses a cycle outright — no seq,
// no count, no state anywhere — once the lagging shard's pending FIFO is
// full, drains that FIFO behind a refusal once the shard readmits
// traffic, and recovers to byte-identical state.
func TestFleetPartialDegradation(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(10, 2)
	fill := streamBodies(maxPendingCommits+1, 1)

	h, err := NewHarness(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg := obs.NewRegistry()
	h.Router.SetObserver(reg)
	statusz := func() RouterStatuszResponse {
		t.Helper()
		var st RouterStatuszResponse
		if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Healthy warm-up.
	for _, body := range bodies[:2] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", status, resp)
		}
	}

	// Saturate shard 1: its admission gate rejects commit RPCs.
	h.Shards[1].SetAdmission(0)
	for i, body := range bodies[2:4] {
		status, resp, hdr := postBody(t, h.URL()+"/annotate", body)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("degraded request %d: status %d (want 503): %s", i, status, resp)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("degraded request %d: missing Retry-After", i)
		}
	}

	// The router's statusz shows the backlog; the shard is reachable
	// (statusz is not admission-gated) and its replica is behind.
	st := statusz()
	if len(st.Shards) != 3 {
		t.Fatalf("statusz shards = %d", len(st.Shards))
	}
	if st.Shards[1].Pending != 2 {
		t.Fatalf("shard 1 pending = %d (want 2)", st.Shards[1].Pending)
	}
	if st.Shards[0].Pending != 0 || st.Shards[2].Pending != 0 {
		t.Fatalf("healthy shards have pending commits: %d, %d",
			st.Shards[0].Pending, st.Shards[2].Pending)
	}
	if st.Shards[1].Status.Seq+2 != st.Shards[0].Status.Seq {
		t.Fatalf("shard 1 seq = %d, shard 0 seq = %d (want 2 behind)",
			st.Shards[1].Status.Seq, st.Shards[0].Status.Seq)
	}

	// Readmit; the next cycle drains the backlog and answers normally.
	h.Shards[1].SetAdmission(4)
	for _, body := range bodies[4:] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK {
			t.Fatalf("post-recovery: status %d: %s", status, resp)
		}
	}

	// Shut shard 1 again until its pending FIFO is full: every one of
	// those cycles is ingested and degraded.
	h.Shards[1].SetAdmission(0)
	for i, body := range fill[:maxPendingCommits] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusServiceUnavailable {
			t.Fatalf("filling request %d: status %d (want 503): %s", i, status, resp)
		}
	}
	ingested := len(bodies) + maxPendingCommits
	committed := reg.Counter("ner_fleet_cycles_total", "")
	if h.Router.Cycles() != ingested || committed.Value() != int64(ingested) {
		t.Fatalf("%d cycles ingested: Cycles() = %d, ner_fleet_cycles_total = %d",
			ingested, h.Router.Cycles(), committed.Value())
	}
	full := statusz()
	if full.Shards[1].Pending != maxPendingCommits {
		t.Fatalf("shard 1 pending = %d, want the full %d", full.Shards[1].Pending, maxPendingCommits)
	}

	// The next cycle is refused outright: it takes no seq, counts as no
	// cycle and changes nothing /statusz shows.
	status, resp, hdr := postBody(t, h.URL()+"/annotate", fill[maxPendingCommits])
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" || !strings.Contains(resp, "pending commits full") {
		t.Fatalf("cycle past a full pending FIFO: status %d (want 503 with Retry-After): %s", status, resp)
	}
	if h.Router.Cycles() != ingested || committed.Value() != int64(ingested) {
		t.Fatalf("a refused cycle was counted: Cycles() = %d, ner_fleet_cycles_total = %d, want %d",
			h.Router.Cycles(), committed.Value(), ingested)
	}
	after := statusz()
	if after.Cycles != ingested || after.Seq != uint64(ingested) {
		t.Fatalf("/statusz after a refused cycle: cycles %d, seq %d, want both %d", after.Cycles, after.Seq, ingested)
	}
	for i := range after.Shards {
		if a, f := after.Shards[i], full.Shards[i]; a.Pending != f.Pending || a.Status.Seq != f.Status.Seq || a.Status.StreamSize != f.Status.StreamSize {
			t.Fatalf("shard %d after a refused cycle: pending %d, seq %d, stream %d; before it %d, %d, %d",
				i, a.Pending, a.Status.Seq, a.Status.StreamSize, f.Pending, f.Status.Seq, f.Status.StreamSize)
		}
	}

	// Readmit. The next cycle is still refused — the FIFO was full when
	// it arrived — but before it is answered shard 1 takes everything it
	// missed, so the request resent after its Retry-After is ingested.
	h.Shards[1].SetAdmission(4)
	if status, resp, _ := postBody(t, h.URL()+"/annotate", fill[maxPendingCommits]); status != http.StatusServiceUnavailable {
		t.Fatalf("the first request after readmission: status %d (want 503): %s", status, resp)
	}
	if st := statusz(); st.Shards[1].Pending != 0 || st.Shards[1].Status.Seq != uint64(ingested) || st.Seq != uint64(ingested) {
		t.Fatalf("after the refused cycle's drain: shard 1 has %d pending at seq %d, router seq %d, want 0 at %d, %d",
			st.Shards[1].Pending, st.Shards[1].Status.Seq, st.Seq, ingested, ingested)
	}
	if status, resp, _ := postBody(t, h.URL()+"/annotate", fill[maxPendingCommits]); status != http.StatusOK {
		t.Fatalf("the refused request resent after the drain: status %d: %s", status, resp)
	}

	// Every POST but the refused one was ingested (commits queued), so
	// the recovered fleet must byte-match a single-process server fed
	// the same sequence.
	_, wantCands, wantEnts := runSingle(t, g, append(append([]string(nil), bodies...), fill...))
	if cands := getBody(t, h.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates after recovery differ\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities after recovery differ\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
}

// TestFleetAllShardsRefuseIngested shuts every shard's admission for one
// cycle. Nothing runs before a cycle takes its seq, so the cycle is
// ingested like one a single shard refuses: it counts, it is queued in
// every pending FIFO and it is answered 503 + Retry-After. Once the
// shards readmit, the next cycle drains it everywhere and the fleet
// byte-matches a single process fed every POST.
func TestFleetAllShardsRefuseIngested(t *testing.T) {
	g := trainedPipeline(t)
	bodies := streamBodies(12, 2)
	want, wantCands, wantEnts := runSingle(t, g, bodies)

	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg := obs.NewRegistry()
	h.Router.SetObserver(reg)

	for i, body := range bodies[:2] {
		if status, resp, _ := postBody(t, h.URL()+"/annotate", body); status != http.StatusOK || resp != want[i] {
			t.Fatalf("warm-up %d: status %d: %s", i, status, resp)
		}
	}
	for _, sh := range h.Shards {
		sh.SetAdmission(0)
	}
	status, resp, hdr := postBody(t, h.URL()+"/annotate", bodies[2])
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("cycle every shard refuses: status %d (want 503 with Retry-After): %s", status, resp)
	}
	if h.Router.Cycles() != 3 {
		t.Fatalf("Cycles() = %d after a cycle every shard refused, want it ingested as cycle 3", h.Router.Cycles())
	}
	var st RouterStatuszResponse
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Seq != 3 {
		t.Fatalf("router seq = %d, want 3", st.Seq)
	}
	for i, sh := range st.Shards {
		if sh.Pending != 1 || sh.Status.Seq != 2 {
			t.Fatalf("shard %d: %d pending at seq %d, want 1 pending at seq 2", i, sh.Pending, sh.Status.Seq)
		}
	}
	for _, sh := range h.Shards {
		sh.SetAdmission(defaultShardAdmission)
	}
	for i := 3; i < len(bodies); i++ {
		status, resp, _ := postBody(t, h.URL()+"/annotate", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("request %d after readmission: status %d: %s", i, status, resp)
		}
		if resp != want[i] {
			t.Fatalf("request %d after readmission differs from single-process\nfleet:  %s\nsingle: %s", i, resp, want[i])
		}
	}
	if cands := getBody(t, h.URL()+"/candidates"); cands != wantCands {
		t.Fatalf("candidates differ\nfleet:  %s\nsingle: %s", cands, wantCands)
	}
	if ents := getBody(t, h.URL()+"/entities"); ents != wantEnts {
		t.Fatalf("entities differ\nfleet:  %s\nsingle: %s", ents, wantEnts)
	}
	if n := reg.Counter("ner_fleet_degraded_cycles_total", "").Value(); n != 1 {
		t.Fatalf("degraded cycles = %d, want 1", n)
	}
}

// TestFleetStatusz checks the router surfaces each shard's resolved
// settings and health, the flag-parity half of the fleet contract.
func TestFleetStatusz(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if status, resp, _ := postBody(t, h.URL()+"/annotate", `{"tweets":["hello world"]}`); status != http.StatusOK {
		t.Fatalf("annotate: status %d: %s", status, resp)
	}

	var st RouterStatuszResponse
	if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "router" || st.Cycles != 1 || st.Seq != 1 {
		t.Fatalf("router statusz: %+v", st)
	}
	for i, sh := range st.Shards {
		if !sh.Healthy {
			t.Fatalf("shard %d unhealthy: %s", i, sh.Error)
		}
		if sh.Status.Index != i || sh.Status.Count != 2 {
			t.Fatalf("shard %d ownership: %+v", i, sh.Status)
		}
		if sh.Status.Seq != 1 || sh.Status.StreamSize != 1 {
			t.Fatalf("shard %d replica state: %+v", i, sh.Status)
		}
		if sh.Status.Precision == "" || sh.Status.SIMD == "" {
			t.Fatalf("shard %d missing resolved settings: %+v", i, sh.Status)
		}
		if sh.Status.Settings["harness"] != "true" {
			t.Fatalf("shard %d settings not surfaced: %+v", i, sh.Status.Settings)
		}
	}
}

// TestFleetReset checks /reset clears the whole fleet and tweet IDs
// restart, matching single-process semantics.
func TestFleetReset(t *testing.T) {
	g := trainedPipeline(t)
	h, err := NewHarness(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	postBody(t, h.URL()+"/annotate", `{"tweets":["hello world"]}`)
	resp, err := http.Post(h.URL()+"/reset", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reset: status %d", resp.StatusCode)
	}
	status, body, _ := postBody(t, h.URL()+"/annotate", `{"tweets":["hello again"]}`)
	if status != http.StatusOK {
		t.Fatalf("post-reset annotate: status %d", status)
	}
	var ar fleetAnnotateResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.StreamSize != 1 || len(ar.Sentences) != 1 || ar.Sentences[0].TweetID != 0 {
		t.Fatalf("post-reset state: %+v", ar)
	}
}

// TestMergeEntityGroups pins the k-way surface-group merge on a
// hand-built case: groups interleave by ascending surface and stay
// contiguous.
func TestMergeEntityGroups(t *testing.T) {
	e := func(surf string, start int) durable.Entity {
		return durable.Entity{Start: start, End: start + 1, Type: types.Person, Surface: surf}
	}
	parts := [][]durable.Entity{
		{e("alpha", 0), e("alpha", 3), e("delta", 5)},
		{},
		{e("bravo", 1), e("echo", 7)},
	}
	got := mergeGroups(parts, entitySurface)
	want := []durable.Entity{
		e("alpha", 0), e("alpha", 3), e("bravo", 1), e("delta", 5), e("echo", 7),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	if out := mergeGroups([][]durable.Entity{{}, {}}, entitySurface); len(out) != 0 {
		t.Fatalf("empty merge = %+v", out)
	}
}

// tokenizerSmoke keeps the tokenizer import honest: bodies built by
// streamBodies round-trip through the same tokenizer the router uses.
func TestStreamBodiesTokenize(t *testing.T) {
	bodies := streamBodies(4, 2)
	if len(bodies) != 2 {
		t.Fatalf("bodies = %d", len(bodies))
	}
	var req struct {
		Tweets []string `json:"tweets"`
	}
	if err := json.Unmarshal([]byte(bodies[0]), &req); err != nil {
		t.Fatal(err)
	}
	for _, raw := range req.Tweets {
		if sents := tokenizer.SplitSentences(tokenizer.Tokenize(raw)); len(sents) == 0 {
			t.Fatalf("tweet %q tokenized to nothing", raw)
		}
	}
}

// TestWireCodecRoundTrip pushes the frame bodies of the per-cycle RPC
// types and the two fan-in replies through encode and decode, covering
// the shapes that matter: empty token and entity lists, non-ASCII
// tokens and exact float64 bits (negative zero).
func TestWireCodecRoundTrip(t *testing.T) {
	creq := &CommitRequest{
		Seq: 7,
		Sentences: []durable.CycleSentence{
			{TweetID: 3, SentID: 0, Tokens: []string{"héllo", "wörld", ""}},
			{TweetID: 4, SentID: 1},
		},
	}
	cresp := &CommitResponse{
		Seq: 7,
		Entities: []durable.SentenceAnnotation{
			{TweetID: 3, SentID: 0, Entities: []durable.Entity{
				{Start: 0, End: 2, Type: types.Location, Surface: "héllo wörld"},
			}},
			{TweetID: 4, SentID: 1},
		},
		StreamSize: 12, Candidates: 5, BusySeconds: 1.5,
	}
	raw := creq.encode()
	var creqOut CommitRequest
	if err := creqOut.decode(raw); err != nil || !reflect.DeepEqual(creq, &creqOut) {
		t.Fatalf("commit request round-trip (%v):\n in: %+v\nout: %+v", err, creq, &creqOut)
	}
	var crespOut CommitResponse
	if err := crespOut.decode(cresp.encode()); err != nil || !reflect.DeepEqual(cresp, &crespOut) {
		t.Fatalf("commit response round-trip (%v):\n in: %+v\nout: %+v", err, cresp, &crespOut)
	}
	cands := []server.Candidate{
		{Surface: "héllo wörld", ClusterID: 2, Type: types.Location, Mentions: 4, Confidence: 0.875},
		{Surface: "", ClusterID: 0, Type: types.None, Mentions: 0, Confidence: math.Copysign(0, -1)},
	}
	if got, err := decodeCandidates(encodeCandidates(cands)); err != nil || !reflect.DeepEqual(cands, got) {
		t.Fatalf("candidates round-trip (%v):\n in: %+v\nout: %+v", err, cands, got)
	}
	if got, err := decodeEntities(encodeEntities(cresp.Entities)); err != nil || !reflect.DeepEqual(cresp.Entities, got) {
		t.Fatalf("entities round-trip (%v):\n in: %+v\nout: %+v", err, cresp.Entities, got)
	}
	if got, err := decodeCandidates(encodeCandidates(nil)); err != nil || got != nil {
		t.Fatalf("empty candidates round-trip: %v, %+v", err, got)
	}

	// One body of every kind the frame path carries, hashed. Pinned anew
	// when the commit body became [seq][sentences]: the tag results and
	// the mode slot left it, and the tag request and response bodies left
	// the wire. The commit response and the fan-in bodies kept their
	// layouts, byte for byte.
	const bodiesHash = "ee10b6e748bc018263ec75c19841edf986d95e18068787b4d78f70ffd670a1c4"
	if got := fmt.Sprintf("%x", sha256.Sum256(bytes.Join(sampleBodies(), nil))); got != bodiesHash {
		t.Fatalf("the sample frame bodies hash to %s, want %s: a layout moved", got, bodiesHash)
	}

	// Every truncation of a body must decode to an error, and so must
	// trailing junk — never a panic or a silent partial value.
	for n := 0; n < len(raw); n++ {
		if err := new(CommitRequest).decode(raw[:n]); err == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", n)
		}
	}
	if err := new(CommitRequest).decode(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}
