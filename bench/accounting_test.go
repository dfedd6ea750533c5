package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(v, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := summarize(v) // 100 samples: p50 yes, p95 no
	if s.N != 100 || s.P50 != 50 || s.Max != 100 {
		t.Errorf("summarize: %+v", s)
	}
	if !math.IsNaN(s.P95) {
		t.Errorf("an unsupported percentile must be NaN, got p95=%v", s.P95)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// fakeAnnotate answers /annotate with one sentence per tweet, IDs
// from a counter, and stalls on the request numbers in stall.
func fakeAnnotate(t *testing.T, stall map[int64]time.Duration, status map[int64]int) *httptest.Server {
	t.Helper()
	var reqs, ids atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := reqs.Add(1) - 1
		if d := stall[n]; d > 0 {
			time.Sleep(d)
		}
		if code := status[n]; code != 0 {
			http.Error(w, "refused", code)
			return
		}
		var req struct {
			Tweets []string `json:"tweets"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sents []string
		for _, tw := range req.Tweets {
			id := ids.Add(1) - 1
			toks, _ := json.Marshal(strings.Fields(tw))
			sents = append(sents, fmt.Sprintf(`{"tweet_id":%d,"sent_id":0,"tokens":%s,"entities":[]}`, id, toks))
		}
		fmt.Fprintf(w, `{"sentences":[%s],"stream_size":0,"candidates":0}`+"\n", strings.Join(sents, ","))
	}))
}

// TestOpenLoopChargesLatencyFromDueTime: with one client at 100 req/s
// and a 200 ms stall injected into request 5, the stalled request and
// the ~19 requests that come due behind it all miss a 100 ms limit
// when latency is timed from the due time — the first of them because
// it was slow, the rest because they were sent late. Timed from the
// send time only the stalled one would miss.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	ts := fakeAnnotate(t, map[int64]time.Duration{5: 200 * time.Millisecond}, nil)
	defer ts.Close()
	tweets := genStream(40, true, 0, 1)
	ops := annotateOps(tweets, 0, len(tweets), 1)
	pace(ops, 100)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	results, _ := runOps(client, ts.URL, ops, 1, true, 0)

	ratio, due := sloOKRatio(ops, results, sloLimitMS)
	if due != 40 {
		t.Fatalf("due = %d, want 40", due)
	}
	misses := int(math.Round(float64(due) * (1 - ratio)))
	// Request 5 is answered at ~250 ms; requests 6..14 were due by then
	// ≥100 ms earlier. Behind them the single client catches up one
	// request per ~service time, so a few more miss. At least the
	// stalled request plus the nine due 100+ ms before it finished.
	if misses < 10 || misses > 25 {
		t.Errorf("misses = %d, want the stalled request plus the ones queued behind it (10..25)", misses)
	}
	sendTimed := 0
	for i, r := range results {
		if r.latencyMS(ops[i], false) > sloLimitMS {
			sendTimed++
		}
	}
	if sendTimed != 1 {
		t.Errorf("timed from the send time %d requests miss, want exactly the stalled one", sendTimed)
	}
	if late := results[6].sent - ops[6].due; late < 100*time.Millisecond {
		t.Errorf("request 6 sent %v after its due time, want ≥100ms (the generator was blocked)", late)
	}
}

func TestSLOCountsFailedRefusedAndUnsentAsMisses(t *testing.T) {
	ts := fakeAnnotate(t, nil, map[int64]int{2: http.StatusServiceUnavailable, 4: http.StatusInternalServerError})
	defer ts.Close()
	tweets := genStream(10, true, 0, 1)
	ops := annotateOps(tweets, 0, len(tweets), 1)
	pace(ops, 200)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	// Cutoff after 32 ms: requests due at 35, 40 and 45 ms are never sent.
	results, _ := runOps(client, ts.URL, ops, 1, true, 32*time.Millisecond)
	unsent := 0
	for _, r := range results {
		if r.unsent {
			unsent++
		}
	}
	if unsent != 3 {
		t.Fatalf("unsent = %d, want 3", unsent)
	}
	ratio, due := sloOKRatio(ops, results, sloLimitMS)
	if want := 5.0 / 10; due != 10 || math.Abs(ratio-want) > 1e-9 {
		t.Errorf("slo_ok_ratio = %v over %d, want %v over 10 (2 refused + 3 unsent are misses)", ratio, due, want)
	}
	st := newStream(tweets)
	if failed, _ := st.verifyOps(ops, results); failed != 5 {
		t.Errorf("verifyOps failed = %d, want 5", failed)
	}
}

func TestBarrierOrdersResets(t *testing.T) {
	var inFlight, maxInFlight, resets atomic.Int64
	var bad atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		if r.URL.Path == "/reset" {
			resets.Add(1)
			if n != 1 {
				bad.Store(true) // a reset overlapped annotate traffic
			}
		}
		time.Sleep(2 * time.Millisecond)
		fmt.Fprintln(w, `{"sentences":[]}`)
	}))
	defer ts.Close()
	var ops []op
	for s := 0; s < 3; s++ {
		ops = append(ops, op{reset: true, barrier: true})
		for i := 0; i < 6; i++ {
			ops = append(ops, op{body: []byte(`{"tweets":["x"]}`)})
		}
	}
	client := newLoadClient()
	defer client.CloseIdleConnections()
	runOps(client, ts.URL, ops, 2, false, 0)
	if bad.Load() {
		t.Error("a reset ran while annotate requests were in flight")
	}
	if resets.Load() != 3 {
		t.Errorf("resets = %d, want 3", resets.Load())
	}
	if maxInFlight.Load() != 2 {
		t.Errorf("max in flight = %d, want 2 (both clients busy between barriers)", maxInFlight.Load())
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Request: 0, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Request: 0, Name: "tokenizer", Start: ms(5), End: ms(15)},
		{ID: 2, Parent: 0, Request: 0, Name: "fanout", Start: ms(20), End: ms(80)},
		// two parallel children of the fan-out that overlap 40..50
		{ID: 3, Parent: 2, Request: 0, Name: "shard", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 2, Request: 0, Name: "shard", Start: ms(40), End: ms(75)},
		// a background span no request waits for
		{ID: 5, Parent: -1, Request: backgroundRequest, Name: "snapshot", Start: ms(100), End: ms(130)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"request":   ms(100 - 10 - 60), // minus tokenizer and fan-out
		"tokenizer": ms(10),
		"fanout":    ms(60 - 55), // children cover 20..75
		"shard":     ms(30 + 35), // both counted: busy time, not wall
		"snapshot":  ms(30),
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if got := rootWall(spans); got != ms(100) {
		t.Errorf("rootWall = %v, want 100ms (background work is not on the blocking path)", got)
	}
}

func TestLedgerGap(t *testing.T) {
	// (B) took 1.0 s, 0.8 s of it in the engine; the program recorded
	// 0.8 s while serving (A): the ledger adds up.
	if gap := ledgerGap(1.0, 0.8, 0.8); gap != 0 {
		t.Errorf("matching engine times: gap %v, want 0", gap)
	}
	// The program recorded 1.0 s of engine time, (B) spent 0.8 s: the
	// modelled wall is 1.2 s and (B) is 0.2 s short of it.
	if gap := ledgerGap(1.0, 0.8, 1.0); math.Abs(gap-0.2/1.2) > 1e-9 {
		t.Errorf("(B) skipping work: gap %v, want %v", gap, 0.2/1.2)
	}
	// (B) doing work (A) does not fails the other way round.
	if gap := ledgerGap(1.0, 0.8, 0.6); math.Abs(gap-0.25) > 1e-9 {
		t.Errorf("(B) doing extra work: gap %v, want 0.25", gap)
	}
	if gap := ledgerGap(0, 0, 0); gap <= ledgerLimit {
		t.Errorf("an empty replay must not pass the ledger: gap %v", gap)
	}
}

// fakeAligner is a durable server reduced to a cycle counter and a
// snapshot schedule: a snapshot lands `lag` requests after the cycle
// that scheduled it.
type fakeAligner struct {
	cyc, newest, every uint64
	sentTotal          int
}

func (f *fakeAligner) settled() (uint64, error) { return f.newest, nil }
func (f *fakeAligner) cycles() uint64           { return f.cyc }
func (f *fakeAligner) send(n int) error {
	for i := 0; i < n; i++ {
		f.cyc++
		f.sentTotal++
		if f.cyc >= f.newest+f.every {
			f.newest = f.cyc
		}
	}
	return nil
}

func TestAlignTail(t *testing.T) {
	for _, c := range []struct {
		name          string
		cyc, newest   uint64
		wantSent      int
		wantCyc, want uint64
	}{
		{"short of the tail: send the difference", 1625, 1536, 7, 1632, 1536},
		{"exactly there: send nothing", 1632, 1536, 0, 1632, 1536},
		{"past the tail: run to the next snapshot, then the tail", 1640, 1536, 24 + 96, 1760, 1664},
		{"no snapshot yet", 10, 0, 86, 96, 0},
	} {
		f := &fakeAligner{cyc: c.cyc, newest: c.newest, every: 128}
		sent, err := alignTail(f, resumeTail, 1000)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if sent != c.wantSent || f.cyc != c.wantCyc || f.newest != c.want || f.cyc-f.newest != resumeTail {
			t.Errorf("%s: sent %d (want %d), cycles %d (want %d), newest %d (want %d)", c.name, sent, c.wantSent, f.cyc, c.wantCyc, f.newest, c.want)
		}
	}
	// A server that never snapshots can never be aligned past the tail.
	f := &fakeAligner{cyc: 200, newest: 0, every: 1 << 60}
	if _, err := alignTail(f, resumeTail, 50); err == nil {
		t.Error("want an error when no snapshot lands within the request budget")
	}
}

func TestNewestSnapshotIgnoresTmp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-00000000000000000128.snap", "snap-00000000000000000256.snap", "snap-00000000000000000384.snap.tmp", "wal-000001.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seq, found, tmp, err := newestSnapshot(dir)
	if err != nil || !found || seq != 256 || !tmp {
		t.Errorf("newestSnapshot = %d %v %v %v, want 256 true true nil", seq, found, tmp, err)
	}
}

func TestCompareSets(t *testing.T) {
	b := bound{Name: "drain_tweets_per_s", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	row := compareSets("w", b, a, []float64{95, 96, 94, 95, 97})
	if !row.pass() || math.Abs(row.Gap-0.05) > 1e-9 {
		t.Errorf("5%% slower within a 10%% bound must pass: %+v", row)
	}
	row = compareSets("w", b, a, []float64{85, 86, 84, 85, 87})
	if row.pass() {
		t.Errorf("15%% slower must fail a 10%% bound: %+v", row)
	}
	row = compareSets("w", b, a, []float64{130, 131, 129, 130, 132})
	if !row.pass() {
		t.Errorf("a better median is never a regression: %+v", row)
	}
	row = compareSets("w", b, []float64{80, 120, 100, 90, 110}, a)
	if row.SpreadOK {
		t.Errorf("a 30%% interquartile spread must fail a 10%% bound: %+v", row)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the code in
// step: the same workloads, every end-to-end metric the code emits, and
// only per-layer names the traced run reports.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not beside this directory: %v", err)
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []bound `json:"end_to_end"`
		PerLayer   []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, the phases are cut for %d", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
	}
	names := func(bs []bound) map[string]string {
		m := map[string]string{}
		for _, b := range bs {
			m[b.Name] = b.Unit
		}
		return m
	}
	if got, want := names(f.EndToEnd), endToEndUnits; !sameUnits(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the code emits %v", got, want)
	}
	if got, want := names(f.PerLayer), perLayerUnits; !sameUnits(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the code emits %v", got, want)
	}
}

func sameUnits(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestAbsentNotZero: a metric that cannot be computed is left out of
// the row, never reported as 0.
func TestAbsentNotZero(t *testing.T) {
	few := []float64{1, 2, 3} // too few samples for any percentile
	m := loadgenMetrics(phaseOut{}, phaseOut{}, summarize(few))
	for _, name := range []string{"loadgen.annotate_p95_ms", "loadgen.drain_p50_ms"} {
		if _, ok := m[name]; ok {
			t.Errorf("%s emitted without the samples to support it", name)
		}
	}
	if _, ok := m["loadgen.annotate_max_ms"]; !ok {
		t.Error("the maximum needs no minimum sample count")
	}
	line := driverLine(&result{EndToEnd: map[string]metric{"setup_s": {Value: 1.5, Unit: "s"}}})
	if strings.Contains(line, "annotate_p50_ms") {
		t.Errorf("driver line invents metrics: %s", line)
	}
}

// TestMachineFactor: the factor is the trimmed mean of the window's
// reference timings over the nominal time, outliers at both ends left
// out, and 1 when the window holds too few samples to say.
func TestMachineFactor(t *testing.T) {
	nominal := float64(probeNominal)
	var took []float64
	for i := 0; i < 18; i++ {
		took = append(took, 1.2*nominal)
	}
	took = append(took, 40*nominal, 0.01*nominal) // a descheduled sample and a freak
	if f := machineFactor(took); math.Abs(f-1.2) > 1e-9 {
		t.Errorf("factor %v, want 1.2 with the two outliers trimmed", f)
	}
	if f := machineFactor(took[:probeMinSamples-1]); f != 1 {
		t.Errorf("factor %v from %d samples, want 1", f, probeMinSamples-1)
	}
}

// TestProbeWindows: samples land in the window they were taken in, and
// stopping twice is harmless.
func TestProbeWindows(t *testing.T) {
	p := startProbe()
	from := p.mark()
	time.Sleep(15 * probeEvery)
	to := p.mark()
	p.stop()
	p.stop()
	if _, n := p.factor(from, to); n < probeMinSamples {
		t.Errorf("%d samples in a window of 15 periods", n)
	}
	if f, n := p.factor(to, to+time.Second); n != 0 || f != 1 {
		t.Errorf("factor %v from %d samples after the probe stopped, want 1 from 0", f, n)
	}
}
