package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	g := r.Gauge("x", "help")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Re-registration returns the same instrument.
	if r.Counter("x_total", "help") != c {
		t.Fatal("re-registered counter is a different instance")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	// None of these may panic or record.
	c.Add(1)
	c.Inc()
	g.Set(9)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric reported a non-zero value")
	}
	var rec *SpanRecorder
	tr := rec.Begin()
	tr.Span("stage", timeNowForTest(), 1, 0)
	tr.End()
	if rec.Traces() != nil {
		t.Fatal("nil recorder returned traces")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v, wrote %q", err, sb.String())
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal
// to a bound lands in that bound's bucket (le = less-or-equal), a
// value above every bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3.9, 4, 4.1, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (≤1): 0.5,1; (≤2): 1.0000001,2; (≤4): 3.9,4; +Inf: 4.1,100
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 3.9 + 4 + 4.1 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2})
	h.Observe(1.5)
	if got := h.Bounds(); got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("bounds not sorted: %v", got)
	}
	if counts := h.BucketCounts(); counts[1] != 1 {
		t.Fatalf("1.5 not in (1,2] bucket: %v", counts)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestSpanRecorderRing(t *testing.T) {
	rec := NewSpanRecorder(2)
	for i := 0; i < 3; i++ {
		tr := rec.Begin()
		tr.Span("stage", timeNowForTest(), int64(i), 0)
		tr.End()
	}
	traces := rec.Traces()
	if len(traces) != 2 {
		t.Fatalf("ring kept %d traces, want 2", len(traces))
	}
	if traces[0].Cycle != 2 || traces[1].Cycle != 3 {
		t.Fatalf("ring order wrong: cycles %d, %d", traces[0].Cycle, traces[1].Cycle)
	}
	if len(traces[1].Spans) != 1 || traces[1].Spans[0].Items != 2 {
		t.Fatalf("span payload wrong: %+v", traces[1].Spans)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Gauge("b", "").Set(-1)
	r.Histogram("c_seconds", "", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s.Counters["a_total"] != 2 {
		t.Fatalf("snapshot counter = %d", s.Counters["a_total"])
	}
	if s.Gauges["b"] != -1 {
		t.Fatalf("snapshot gauge = %d", s.Gauges["b"])
	}
	hs, ok := s.Histograms["c_seconds"]
	if !ok || hs.Count != 1 || hs.Sum != 0.5 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
	if len(hs.Bounds) != 1 || len(hs.Counts) != 2 {
		t.Fatalf("snapshot histogram shape = %+v", hs)
	}
	// Nil registry snapshots to the same (empty) shape.
	var nilr *Registry
	ns := nilr.Snapshot()
	if ns.Counters == nil || ns.Gauges == nil || ns.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps")
	}
}
