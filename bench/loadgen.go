package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// loadClients is the number of keep-alive connections the generator
// drives, equal to nproc on the box the bounds were fixed on. More
// clients than cores only measures the scheduler.
const loadClients = 2

// op is one request of a phase. Ops are issued in index order by
// whichever client frees first.
type op struct {
	reset  bool   // POST /reset instead of POST /annotate
	body   []byte // pre-encoded /annotate payload
	tweets []int  // indices into the phase's tweet slice, in request order
	// due is the offset from the phase start at which the request is
	// scheduled (open loop). It is ignored in a closed-loop phase.
	due time.Duration
	// barrier makes the op wait until every earlier op has completed,
	// and every later op wait for it: a reset must not overtake or be
	// overtaken by annotate traffic of the neighbouring streams.
	barrier bool
}

// opResult is what the generator saw for one op. Offsets are from the
// phase start.
type opResult struct {
	sent   time.Duration
	done   time.Duration
	status int // 0 when the request failed in transport or was never sent
	unsent bool
	body   []byte
}

// latencyMS is the op's latency in milliseconds: from the due time in
// an open-loop phase, so that generator lateness and the wait a stall
// imposes on later requests are charged to the request; from the send
// time in a closed loop.
func (r opResult) latencyMS(o op, paced bool) float64 {
	from := r.sent
	if paced {
		from = o.due
	}
	return float64(r.done-from) / float64(time.Millisecond)
}

func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        loadClients,
		MaxIdleConnsPerHost: loadClients,
		MaxConnsPerHost:     loadClients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// runOps drives ops against base with the given number of clients and
// returns one result per op plus the phase wall time. In a paced phase
// each op waits for its due time; an op that has not been sent by
// cutoff (offset from the start; 0 means never) is recorded as unsent
// and skipped, so an overloaded system shows as missed requests, not
// as a phase that stretches.
func runOps(client *http.Client, base string, ops []op, clients int, paced bool, cutoff time.Duration) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		next      int
		completed int
		doneFlag  = make([]bool, len(ops))
		lastBar   = -1 // index of the latest barrier op handed out
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(ops) {
					mu.Unlock()
					return
				}
				i := next
				next++
				need := lastBar
				if ops[i].barrier {
					lastBar = i
					for completed < i {
						cond.Wait()
					}
				} else if need >= 0 {
					for !doneFlag[need] {
						cond.Wait()
					}
				}
				mu.Unlock()

				o := &ops[i]
				if paced {
					if d := o.due - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				}
				r := &results[i]
				r.sent = time.Since(start)
				if paced && cutoff > 0 && r.sent > cutoff {
					r.unsent = true
					r.done = r.sent
				} else {
					r.status, r.body = post(client, base, o)
					r.done = time.Since(start)
				}

				mu.Lock()
				doneFlag[i] = true
				completed++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// post sends one op and reads the whole response body, so latency
// ends at the last byte of the reply.
func post(client *http.Client, base string, o *op) (int, []byte) {
	path, body := "/annotate", o.body
	if o.reset {
		path, body = "/reset", nil
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// phaseStat is the accounting of one phase: wall time, operations
// attempted and failed, and how late the generator ran.
type phaseStat struct {
	Name      string  `json:"name"`
	WallS     float64 `json:"wall_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Tweets    int     `json:"tweets"`
	Samples   int     `json:"samples"`
	MaxLateMS float64 `json:"max_late_ms,omitempty"`
	Unsent    int     `json:"unsent,omitempty"`
}

// sloOKRatio is the share of due requests answered 200 within the
// limit of their due time. Resets are not counted; a failed, refused
// or unsent request is a miss.
func sloOKRatio(ops []op, results []opResult, limitMS float64) (ratio float64, due int) {
	ok := 0
	for i, o := range ops {
		if o.reset {
			continue
		}
		due++
		r := results[i]
		if !r.unsent && r.status == http.StatusOK && r.latencyMS(o, true) <= limitMS {
			ok++
		}
	}
	if due == 0 {
		return 0, 0
	}
	return float64(ok) / float64(due), due
}
