package fleet

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
)

// frontQueueDepth is the front's admission bound, part of its contract.
const frontQueueDepth = 128

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

// TestFrontContract pins the HTTP contract of the one serving front —
// admission, readiness gate, shutdown, durability failure — through
// both handlers it sits behind: the single server's and the router's.
// Every case runs on a fresh process.
func TestFrontContract(t *testing.T) {
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
