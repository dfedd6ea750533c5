package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it started and
// ended (offsets from the trace start), the span that caused it (-1
// for a request's root) and the request it belongs to.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It is safe for concurrent use (the fleet replay fans out).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, request int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now, End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent, request int, fn func(id int)) {
	id := t.begin(name, parent, request)
	fn(id)
	t.end(id)
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of that interval its child spans cover.
// Children may overlap each other (parallel fan-out); the covered part
// is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	end = -1
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// backgroundRequest marks a root span that no request waits for (a
// snapshot written after the ack).
const backgroundRequest = -1

// rootWall is the summed duration of the requests' root spans: the
// wall time of a serial replay, with the gaps between requests and the
// background work no request waits for left out.
func rootWall(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 && s.Request != backgroundRequest {
			d += s.End - s.Start
		}
	}
	return d
}

// ledgerGap checks the composed replay (B) against an independent
// reading of the same work: the engine time the program itself
// recorded (its ner_cycle_seconds) while the real topology served the
// same requests (A). composedS is the sum of (B)'s self times, engineS
// the part of it spent in the engine calls, recordedS the program's
// own figure. With the engine share of (B) replaced by the recorded
// one the ledger reads composedS - engineS + recordedS; the gap is how
// far (B) is from that, as a share of it. A (B) that does work (A)
// does not, or skips work it does, shows here and nowhere else.
func ledgerGap(composedS, engineS, recordedS float64) float64 {
	modelled := composedS - engineS + recordedS
	if modelled <= 0 {
		return math.Inf(1)
	}
	return math.Abs(composedS-modelled) / modelled
}

// writeSpans dumps the spans of a traced run as JSON.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
