// Package obs is the pipeline's observability substrate: lock-free
// atomic counters and gauges, fixed-bucket latency histograms, and a
// per-cycle stage-span recorder, gathered in a Registry that exports
// Prometheus text exposition and a JSON snapshot. It depends only on
// the standard library.
//
// The zero-overhead contract every instrument upholds: a nil metric
// (what a nil *Registry hands out) makes every recording method a
// single nil-check branch — no allocation, no atomic operation, no
// time syscall. Instrumented code therefore threads metric pointers
// unconditionally and never wraps call sites in feature flags; turning
// observability off is passing a nil Registry.
//
// Metric naming scheme (see DESIGN.md "Observability"):
//
//	ner_<subsystem>_<what>_<unit-suffix>
//
// with the Prometheus conventions: counters end in _total, histograms
// of durations end in _seconds, gauges are bare nouns. Every metric is
// registered with a help string that becomes its # HELP line.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil Counter
// is valid and records nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge is valid and
// records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on nil.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (use for in-flight style gauges).
// No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram, race-safe and
// mergeable. Bucket boundaries are upper bounds (le); an implicit +Inf
// bucket catches everything above the last boundary. Observations are
// lock-free: one atomic add on the bucket plus a CAS loop on the
// float-bit sum. A nil Histogram is valid and records nothing.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// DefBuckets is the default boundary set for second-denominated
// latencies, spanning 50µs to 30s — micro-stage busy times through
// whole training-free cycles.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets is the default boundary set for count-denominated
// distributions (batch sizes, coalesced jobs per cycle).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// NewHistogram builds a detached histogram (one not owned by a
// registry) over the given ascending bucket bounds. Most callers use
// Registry.Histogram instead; detached histograms exist for merging
// scratch and tests.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the +Inf bucket is index
	// len(bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the
// last entry being the +Inf bucket. The copy is not an atomic snapshot
// across buckets; under concurrent observation the cumulative counts
// can trail count by in-flight observations, which exposition
// tolerates.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// metricKind tags a registry entry for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. Registration takes a mutex (it happens
// once, at wiring time); recording through the returned metric
// pointers is lock-free. A nil *Registry is valid: it hands out nil
// metrics, making the entire instrumented program a collection of
// single-branch no-ops.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter registers (or returns the existing) counter under name.
// Returns nil on a nil registry. Registering a name that exists with a
// different metric kind panics: it is a wiring bug, not a runtime
// condition.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindCounter {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return e.c
	}
	c := &Counter{}
	r.entries[name] = &entry{name: name, help: help, kind: kindCounter, c: c}
	return c
}

// Gauge registers (or returns the existing) gauge under name. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindGauge {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return e.g
	}
	g := &Gauge{}
	r.entries[name] = &entry{name: name, help: help, kind: kindGauge, g: g}
	return g
}

// Histogram registers (or returns the existing) histogram under name
// with the given bucket bounds (DefBuckets when bounds is nil).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindHistogram {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return e.h
	}
	h := NewHistogram(bounds)
	r.entries[name] = &entry{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

// sorted returns the entries in name order — the stable exposition
// order both /metrics and /statusz use.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len reports how many metrics are registered (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
