package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
)

// frontQueueDepth is the front's admission bound, part of its contract.
const frontQueueDepth = 128

// serverTailDepth is the tail depth the single server builds its front
// with (server.ackQueueDepth); the router's is commitQueueDepth.
const serverTailDepth = 32

// staysBlocked is how long a case watches for something that must not
// happen — a cycle staged past the tail's bound, an exclusive operation
// overtaking a parked finish — before it lets it happen.
const staysBlocked = 100 * time.Millisecond

// frontProcess is one serving process behind the shared front, as the
// contract test drives it.
type frontProcess struct {
	handler      http.Handler
	front        *server.Front
	reg          *obs.Registry
	startDurable func(dir string) error
	close        func()
}

func (p *frontProcess) do(method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// tailProbe is a front built as a serving process builds its own — same
// constructor, that process's tail depth, served through the front's own
// mux — over a cycle the test can watch and park: stage one reports the
// cycle's number, the finish records that it started, waits at its gate
// if the case set one, and answers the cycle's jobs. (The real
// processes' finishes wait on an fsync or on a shard, which a test can
// only park from the far side; "a reset behind a parked finish" below
// does that through the real router.)
type tailProbe struct {
	front   *server.Front
	handler http.Handler
	staged  chan int // stage one of cycle n has run

	mu       sync.Mutex
	cycles   int
	gates    map[int]chan struct{}
	started  []int // finishes, in the order they started
	finished int
}

func newTailProbe(depth int) *tailProbe {
	p := &tailProbe{staged: make(chan int, frontQueueDepth), gates: map[int]chan struct{}{}}
	p.front = server.NewFront(p.runCycle, depth)
	p.handler = p.front.Mux()
	return p
}

func (p *tailProbe) runCycle(jobs []*server.Job) func() {
	p.mu.Lock()
	p.cycles++
	n := p.cycles
	gate := p.gates[n]
	p.mu.Unlock()
	p.staged <- n
	return func() {
		p.mu.Lock()
		p.started = append(p.started, n)
		p.mu.Unlock()
		if gate != nil {
			<-gate
		}
		for _, j := range jobs {
			j.Reply(server.AnnotateResponse{StreamSize: n})
		}
		p.mu.Lock()
		p.finished++
		p.mu.Unlock()
	}
}

// park makes cycle n's finish wait until the returned gate is closed.
func (p *tailProbe) park(n int) chan struct{} {
	gate := make(chan struct{})
	p.mu.Lock()
	p.gates[n] = gate
	p.mu.Unlock()
	return gate
}

func (p *tailProbe) tail() (started []int, finished int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.started...), p.finished
}

// post sends one /annotate request and delivers its status on statuses.
func (p *tailProbe) post(statuses chan<- int) {
	go func() {
		rec := httptest.NewRecorder()
		p.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/annotate",
			strings.NewReader(`{"tweets":["Cases rise in Italy again"]}`)))
		statuses <- rec.Code
	}()
}

// stage posts one request and waits until it has run, alone, as stage
// one of cycle want.
func (p *tailProbe) stage(t *testing.T, statuses chan<- int, want int) {
	t.Helper()
	p.post(statuses)
	if n := <-p.staged; n != want {
		t.Fatalf("staged cycle %d, want %d", n, want)
	}
}

// testTailContract pins the second half of a cycle — the front's one
// ordered tail — at the depth a process runs it with.
func testTailContract(t *testing.T, depth int) {
	t.Run("order, overlap and bound", func(t *testing.T) {
		p := newTailProbe(depth)
		defer p.front.Close(func() {})
		// With cycle 1's finish parked, depth more finishes queue up
		// behind it, each after its own stage one ran — stage one of N+1
		// overlaps the finish of N — and one more cycle is staged before
		// the scheduler blocks handing its finish over.
		gate := p.park(1)
		total := depth + 3
		statuses := make(chan int, total)
		for n := 1; n <= depth+2; n++ {
			p.stage(t, statuses, n)
		}
		p.post(statuses)
		select {
		case n := <-p.staged:
			t.Fatalf("cycle %d staged with %d finishes queued behind the one running", n, depth)
		case <-time.After(staysBlocked):
		}
		if started, finished := p.tail(); !reflect.DeepEqual(started, []int{1}) || finished != 0 {
			t.Fatalf("with cycle 1 parked: finishes started %v, %d finished", started, finished)
		}
		close(gate)
		if n := <-p.staged; n != total {
			t.Fatalf("staged cycle %d once the tail moved, want %d", n, total)
		}
		for i := 0; i < total; i++ {
			if status := <-statuses; status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
		}
		want := make([]int, total)
		for i := range want {
			want[i] = i + 1
		}
		if started, _ := p.tail(); !reflect.DeepEqual(started, want) {
			t.Fatalf("finishes ran in order %v, want cycle order", started)
		}
	})

	// Exclusive and Close run what they are given only once the tail has
	// finished every cycle staged before them.
	for name, call := range map[string]func(p *tailProbe, op func()){
		"Exclusive sees an empty tail": func(p *tailProbe, op func()) { p.front.Exclusive(op) },
		"Close sees an empty tail":     func(p *tailProbe, op func()) { p.front.Close(op) },
	} {
		t.Run(name, func(t *testing.T) {
			p := newTailProbe(depth)
			defer p.front.Close(func() {})
			gate := p.park(1)
			statuses := make(chan int, 2)
			p.stage(t, statuses, 1)
			p.stage(t, statuses, 2)
			ran := make(chan int, 1)
			go call(p, func() {
				_, finished := p.tail()
				ran <- finished
			})
			select {
			case finished := <-ran:
				t.Fatalf("ran with cycle 1's finish parked (%d finished)", finished)
			case <-time.After(staysBlocked):
			}
			close(gate)
			if finished := <-ran; finished != 2 {
				t.Fatalf("ran with %d of 2 finishes done", finished)
			}
		})
	}
}

// TestFrontContract pins the contract of the one serving front — the
// HTTP half (admission, readiness gate, shutdown, durability failure)
// through both handlers it sits behind, the single server's and the
// router's, and the tail half at both processes' depth. Every case runs
// on a fresh process.
func TestFrontContract(t *testing.T) {
	for name, depth := range map[string]int{"server": serverTailDepth, "router": commitQueueDepth} {
		t.Run(name+"/tail", func(t *testing.T) { testTailContract(t, depth) })
	}
	t.Run("router/tail/a reset behind a parked finish", func(t *testing.T) {
		h, err := NewHarness(trainedPipeline(t), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		// Shard 0's engine lock, held, parks the commit fan-out — the
		// router's finish — of the one cycle; the reset issued meanwhile
		// must wait for it and then clear the stream it wrote.
		held, release := make(chan struct{}), make(chan struct{})
		go h.Shards[0].rep.View(func(*core.Globalizer) { close(held); <-release })
		<-held
		annotated, reset := make(chan int, 1), make(chan int, 1)
		go func() {
			status, _, _ := postBody(t, h.URL()+"/annotate", `{"tweets":["Cases rise in Italy again"]}`)
			annotated <- status
		}()
		for h.Router.Cycles() == 0 { // the cycle took its seq: its finish is next
			time.Sleep(time.Millisecond)
		}
		go func() {
			status, _, _ := postBody(t, h.URL()+"/reset", "")
			reset <- status
		}()
		select {
		case status := <-reset:
			t.Fatalf("reset answered %d with the cycle's commit fan-out parked", status)
		case <-time.After(staysBlocked):
		}
		close(release)
		if status := <-annotated; status != http.StatusOK {
			t.Fatalf("annotate: status %d", status)
		}
		if status := <-reset; status != http.StatusOK {
			t.Fatalf("reset: status %d", status)
		}
		var st RouterStatuszResponse
		if err := json.Unmarshal([]byte(getBody(t, h.URL()+"/statusz")), &st); err != nil {
			t.Fatal(err)
		}
		if st.Seq != 0 || st.Shards[0].Status.StreamSize != 0 || st.Shards[1].Status.StreamSize != 0 {
			t.Fatalf("after the reset: router seq %d, shard streams %d and %d, want an empty fleet",
				st.Seq, st.Shards[0].Status.StreamSize, st.Shards[1].Status.StreamSize)
		}
	})

	g := trainedPipeline(t)
	const tweet = `{"tweets":["Cases rise in Italy again"]}`
	processes := map[string]func(t *testing.T) *frontProcess{
		"server": func(t *testing.T) *frontProcess {
			srv := server.New(g)
			reg := obs.NewRegistry()
			srv.SetObserver(reg)
			return &frontProcess{
				handler: srv.Handler(), front: srv.Front(), reg: reg, close: srv.Close,
				startDurable: func(dir string) error {
					if err := srv.StartDurable(dir, durable.Options{}); err != nil {
						return err
					}
					return srv.WaitWarm()
				},
			}
		},
		"router": func(t *testing.T) *frontProcess {
			h, err := NewHarness(g, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			h.Router.SetObserver(reg)
			return &frontProcess{
				handler: h.Router.Handler(), front: h.Router.front, reg: reg, close: h.Close,
				startDurable: func(dir string) error {
					if err := h.Router.StartDurable(dir, durable.Options{}); err != nil {
						return err
					}
					return h.Router.WaitWarm()
				},
			}
		},
	}

	cases := []struct {
		name string
		// arrange puts the process in the state under test and returns
		// what undoes it (nil: nothing to undo).
		arrange      func(t *testing.T, p *frontProcess) (undo func())
		method, body string
		status       int
		reply        string // body of the answer ("": not checked)
		retryAfter   string
		rejected     int64  // ner_http_rejected_total afterwards
		routerAlso   int64  // cycle refusals only the router counts on it
		healthz      string // /healthz body afterwards
	}{
		{name: "GET", method: http.MethodGet, status: http.StatusMethodNotAllowed, healthz: "ok\n"},
		{name: "bad JSON", method: http.MethodPost, body: `{"tweets":`, status: http.StatusBadRequest, healthz: "ok\n"},
		{name: "no tweets", method: http.MethodPost, body: `{"tweets":[]}`, status: http.StatusBadRequest, healthz: "ok\n"},
		{name: "blank tweet", method: http.MethodPost, body: `{"tweets":["Governor Beshear gives an update","   "]}`,
			status: http.StatusBadRequest, reply: "tweet 1 has no tokens\n", healthz: "ok\n"},
		{name: "body past the 1 MB cap", method: http.MethodPost,
			body:   `{"tweets":["` + strings.Repeat("a", 1<<20) + `"]}`,
			status: http.StatusBadRequest, healthz: "ok\n"},
		{name: "accepted", method: http.MethodPost, body: tweet, status: http.StatusOK, healthz: "ok\n"},
		{name: "full queue", method: http.MethodPost, body: tweet,
			status: http.StatusServiceUnavailable, retryAfter: "1", rejected: 2, healthz: "ok\n",
			arrange: func(t *testing.T, p *frontProcess) func() {
				// Hold the scheduler between two cycles and send one request
				// more than the queue holds: the admitted ones park, so the
				// first answer is the one refusal, and it proves the queue is
				// full (the case's own request is the second refusal).
				release, held := make(chan struct{}), make(chan struct{})
				go p.front.Exclusive(func() { close(held); <-release })
				<-held
				statuses := make(chan int, frontQueueDepth+1)
				for i := 0; i < frontQueueDepth+1; i++ {
					go func() { statuses <- p.do(http.MethodPost, "/annotate", tweet).Code }()
				}
				if status := <-statuses; status != http.StatusServiceUnavailable {
					t.Fatalf("first answer with the scheduler held: status %d, want the overflow 503", status)
				}
				return func() {
					close(release)
					for i := 0; i < frontQueueDepth; i++ {
						if status := <-statuses; status != http.StatusOK {
							t.Errorf("request parked in the queue: status %d", status)
						}
					}
				}
			}},
		{name: "replaying", method: http.MethodPost, body: tweet,
			status: http.StatusServiceUnavailable, retryAfter: "1", healthz: "{\"status\":\"replaying\"}\n",
			arrange: func(t *testing.T, p *frontProcess) func() {
				warm := make(chan struct{})
				p.front.Gate.Recover(func() error { <-warm; return nil })
				return func() {
					close(warm)
					if err := p.front.Gate.WaitWarm(); err != nil {
						t.Error(err)
					}
					if rec := p.do(http.MethodPost, "/annotate", tweet); rec.Code != http.StatusOK {
						t.Errorf("annotate once warm: status %d: %s", rec.Code, rec.Body)
					}
				}
			}},
		{name: "tripped", method: http.MethodPost, body: tweet,
			status: http.StatusServiceUnavailable, healthz: "{\"status\":\"durability_failed\"}\n",
			arrange: func(t *testing.T, p *frontProcess) func() {
				p.front.Gate.Trip()
				return nil
			}},
		{name: "closed", method: http.MethodPost, body: tweet, status: http.StatusServiceUnavailable, healthz: "ok\n",
			arrange: func(t *testing.T, p *frontProcess) func() {
				p.close()
				return nil
			}},
		{name: "cycle cannot be made durable", method: http.MethodPost, body: tweet,
			status: http.StatusInternalServerError, routerAlso: 1, healthz: "{\"status\":\"durability_failed\"}\n",
			arrange: func(t *testing.T, p *frontProcess) func() {
				// The first append creates its WAL segment: with the data dir
				// gone it fails, after the cycle already ran.
				dir := t.TempDir()
				if err := p.startDurable(dir); err != nil {
					t.Fatal(err)
				}
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
				return nil
			}},
	}

	for name, start := range processes {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				p := start(t)
				defer p.close()
				if tc.arrange != nil {
					if undo := tc.arrange(t, p); undo != nil {
						defer undo()
					}
				}
				rec := p.do(tc.method, "/annotate", tc.body)
				if rec.Code != tc.status {
					t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
				}
				if tc.reply != "" && rec.Body.String() != tc.reply {
					t.Fatalf("body %q, want %q", rec.Body, tc.reply)
				}
				if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
					t.Fatalf("Retry-After %q, want %q", got, tc.retryAfter)
				}
				want := tc.rejected
				if name == "router" {
					want += tc.routerAlso
				}
				if got := p.reg.Counter("ner_http_rejected_total", "").Value(); got != want {
					t.Fatalf("ner_http_rejected_total = %d, want %d", got, want)
				}
				if got := p.do(http.MethodGet, "/healthz", "").Body.String(); got != tc.healthz {
					t.Fatalf("/healthz %q, want %q", got, tc.healthz)
				}
			})
		}
	}
}
