package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/types"
)

const (
	// traceWorkers is the engine parallelism of the traced run: with
	// one worker the program's per-surface stage histograms sum to
	// exclusive busy time instead of contended wall time per goroutine.
	traceWorkers = 1
	// serialReads is how many serial GETs time each read endpoint.
	serialReads = 30
	// ledgerLimit is how far the composed replay's engine time may sit
	// from the engine time the program recorded while serving the same
	// requests before the decomposition is not to be trusted and the
	// run fails.
	ledgerLimit = 0.10
)

// regSum totals a histogram's sum and count, or a counter, over
// several registries (the fleet has one per shard).
type regSum []obs.Snapshot

func snapshots(regs []*obs.Registry) regSum {
	var out regSum
	for _, r := range regs {
		out = append(out, r.Snapshot())
	}
	return out
}

func (rs regSum) hist(name string) (sum float64, count int64) {
	for _, s := range rs {
		h := s.Histograms[name]
		sum += h.Sum
		count += h.Count
	}
	return sum, count
}

func (rs regSum) counter(name string) float64 {
	var n int64
	for _, s := range rs {
		n += s.Counters[name]
	}
	return float64(n)
}

func (rs regSum) gauge(name string) float64 {
	var n int64
	for _, s := range rs {
		n += s.Gauges[name]
	}
	return float64(n)
}

// liveAligner drives the snapshot-alignment epilogue against the real
// durable server.
type liveAligner struct {
	s      *sut
	client *http.Client
	ops    []op // epilogue requests, consumed front to back
	stream *stream
	failed int
	first  string
}

func (a *liveAligner) cycles() uint64 { return uint64(a.s.Cycles()) }

func (a *liveAligner) settled() (uint64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		body, err := get(a.client, a.s.URL+"/statusz")
		if err != nil {
			return 0, err
		}
		var st server.StatuszResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, err
		}
		if st.Durability == nil {
			return 0, fmt.Errorf("/statusz reports no durability layer")
		}
		seq, found, tmp, err := newestSnapshot(a.s.Dir)
		if err != nil {
			return 0, err
		}
		if st.Durability.SnapshotPending == 0 && !tmp {
			if !found {
				seq = 0
			}
			return seq, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("snapshot writer still busy after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quiesce waits out a snapshot the server has due, queued or in
// flight behind its latest ack, so that the write does not run beside
// whatever is timed next.
func (a *liveAligner) quiesce() error {
	seq, _, tmp, err := newestSnapshot(a.s.Dir)
	if err != nil {
		return err
	}
	if tmp || a.cycles()-seq >= uint64(durableOptions.SnapshotEvery) {
		_, err = a.settled()
	}
	return err
}

func (a *liveAligner) send(n int) error {
	if n > len(a.ops) {
		return fmt.Errorf("epilogue needs %d more requests, %d left", n, len(a.ops))
	}
	ops := a.ops[:n]
	a.ops = a.ops[n:]
	results, _ := runOps(a.client, a.s.URL, ops, 1, false, 0)
	failed, first := a.stream.verifyOps(ops, results)
	a.failed += failed
	if a.first == "" {
		a.first = first
	}
	return nil
}

// tracedRun carries one traced run between its steps.
type tracedRun struct {
	w      workload
	seed   int64
	ckpt   string
	r      *result
	p      *plan
	client *http.Client
	pl     map[string]metric // the per-layer metrics, by name

	replay []op    // prime + drain slice, served serially by (A) and (B)
	cycleS float64 // engine time the program recorded while serving (A)
	drainS float64 // wall of the untraced drain over the same slice
}

func (t *tracedRun) put(name string, v float64) {
	t.pl[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

func (t *tracedRun) secs(name string, d time.Duration) { t.put(name, d.Seconds()) }

// runTraced is the traced run: the set-up pieces and an untraced drain
// for reference, then the serial replay — every request first served
// over HTTP by the real topology (A), then by the layers' public
// functions composed with a span around each call (B) — and the reads,
// resume rounds and tier timings that belong to single layers.
func runTraced(w workload, seed int64, ckpt, outDir string, r *result) error {
	w.Drain, w.Paced = w.Traced, 0
	t := &tracedRun{w: w, seed: seed, ckpt: ckpt, r: r, p: makePlan(w, seed),
		client: newLoadClient(), pl: map[string]metric{}}
	defer t.client.CloseIdleConnections()
	t.replay = append(append([]op(nil), t.p.prime...), t.p.drain...)

	if err := t.untracedPass(); err != nil {
		return err
	}
	spans, err := t.replayAB()
	if err != nil {
		return err
	}
	tiers, err := tierRates(ckpt, seed)
	if err != nil {
		return err
	}
	for name, v := range tiers {
		t.put(name, v)
	}
	if err := writeSpans(outDir, w.Name, spans); err != nil {
		return err
	}
	r.PerLayer = t.pl
	return nil
}

// untracedPass times the set-up pieces alone, then drains the slice at
// serving parallelism with two clients: the wall the traced replay is
// compared with (trace.overhead_ratio).
func (t *tracedRun) untracedPass() error {
	t0 := time.Now()
	if _, err := checkpoint.LoadFile(t.ckpt); err != nil {
		return err
	}
	t.secs("checkpoint.load_s", time.Since(t0))
	t.put("core.train_s", trainSeconds(t.ckpt))

	s, primeS, err := t.p.coldStart(t.r, t.ckpt, serveWorkers, t.client, true)
	if err != nil {
		return err
	}
	defer s.Close()
	t.put("server.prime_s", primeS)
	drain := t.p.runPhase(t.r, "drain", t.client, s.URL, t.p.drain, loadClients, false)
	t.drainS = drain.stat.WallS
	return nil
}

// replayAB serves the slice serially twice over, request by request:
// first over HTTP on the real topology built with one worker (A), then
// through the composed layers (B), so that the two see the same
// machine from one millisecond to the next and their times compare.
// Every reply of (B) must equal (A)'s byte for byte, and so must the
// final /entities. Afterwards it reads the program's own instruments,
// the read endpoints and — on the durable topology — the resume
// rounds, and turns the spans into self times and the ledger.
func (t *tracedRun) replayAB() ([]span, error) {
	a, err := buildSUT(t.w.Topology, t.ckpt, traceWorkers)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	if a.Harness != nil {
		a.Harness.Router.SetRecordStats(true)
	}
	tr := newTracer()
	b, err := newComposed(t.w.Topology, t.ckpt, traceWorkers, tr)
	if err != nil {
		return nil, err
	}
	defer b.Close()

	al := &liveAligner{s: a, client: t.client}
	resA := make([]opResult, len(t.replay))
	var wallA, drainA time.Duration
	mismatches := 0
	for i := range t.replay {
		o := &t.replay[i]
		t0 := time.Now()
		status, body := post(t.client, a.URL, o)
		took := time.Since(t0)
		resA[i] = opResult{done: took, status: status, body: body}
		wallA += took
		if i >= len(t.p.prime) {
			drainA += took
		}
		if a.Dir != "" {
			if err := al.quiesce(); err != nil {
				return nil, err
			}
		}
		if o.reset {
			b.reset(i)
			continue
		}
		bodyB, err := b.annotate(i, opTexts(t.p.stream.Tweets, *o))
		if err != nil {
			return nil, fmt.Errorf("composed replay, request %d: %w", i, err)
		}
		if !bytes.Equal(bodyB, body) {
			mismatches++
		}
	}
	failed, first := t.p.stream.verifyOps(t.replay, resA)
	t.r.Phases = append(t.r.Phases, phaseStat{Name: "replay-A", WallS: wallA.Seconds(), Attempted: len(t.replay), Failed: failed, Tweets: tweetsOf(t.replay), Samples: len(t.replay)})
	t.r.check("replay (A): every request answered 200 with the right sentences", failed == 0, "%d failed; %s", failed, first)

	entitiesB, err := b.entities()
	if err != nil {
		return nil, err
	}
	b.Close() // (B)'s engines must not count towards (A)'s live heap
	b.engines = nil
	spans := tr.spans
	wallB := rootWall(spans)
	t.r.Phases = append(t.r.Phases, phaseStat{Name: "replay-B", WallS: wallB.Seconds(), Attempted: len(t.replay), Failed: mismatches, Tweets: tweetsOf(t.replay), Samples: len(t.replay)})
	t.r.check("replay (B): every reply byte-identical to (A)", mismatches == 0, "%d of %d replies differ", mismatches, len(t.replay))

	t.readInstruments(a)
	entitiesA, err := t.serialReads(a)
	if err != nil {
		return nil, err
	}
	t.r.check("replay (B): final /entities byte-identical to (A)", bytes.Equal(entitiesA, entitiesB), "%d vs %d bytes", len(entitiesA), len(entitiesB))
	if err := t.resume(a); err != nil {
		return nil, err
	}

	self := selfTimes(spans)
	t.secs("tokenizer.busy_s", self[spanTokenize])
	t.secs("localner.busy_s", self[spanTag])
	t.secs("core.global_busy_s", self[spanGlobal])
	t.secs("server.render_s", self[spanRender])
	t.secs("durable.encode_s", self[spanEncode])
	t.secs("durable.append_s", self[spanAppend])
	t.secs("durable.fsync_wait_s", self[spanFsyncWait])
	t.secs("durable.capture_s", self[spanCapture])
	t.secs("durable.snapshot_write_s", self[spanSnapWrite])
	// What the real topology spends around the layers: admission, JSON
	// decode, scheduling, TCP, and on the fleet the router-shard hops.
	// It is the remainder by definition, so it proves nothing.
	httpSelf := wallA - wallB
	if httpSelf < 0 {
		httpSelf = 0
	}
	t.secs("server.http_self_s", httpSelf)
	// The ledger proper: the engine time (B) spent against the engine
	// time the program itself recorded while serving (A).
	engineB := self[spanTag] + self[spanGlobal]
	if a.Harness != nil {
		engineB = self[spanGlobal] // a shard's cycle starts after the tag RPC
	}
	gap := ledgerGap(wallB.Seconds(), engineB.Seconds(), t.cycleS)
	t.put("trace.ledger_gap_ratio", gap)
	// A miniature replay spends milliseconds in the engine: its ratio is
	// timer noise, reported and not checked.
	t.r.check("ledger: composed engine time within 10% of what the program recorded", gap <= ledgerLimit || t.r.Header.Smoke,
		"(B) spent %.3fs in the engine, the program recorded %.3fs while serving (A): gap %.3f of the modelled wall", engineB.Seconds(), t.cycleS, gap)
	t.put("trace.overhead_ratio", drainA.Seconds()/t.drainS)
	t.put("trace.reply_mismatches", float64(mismatches))
	return spans, nil
}

// readInstruments reads, after traffic has drained, what the program
// recorded about (A): the pipeline stages of the engine registries
// (exclusive at one worker), the front process's counters, the
// router's per-cycle RPC accounting and the commit path's gauges.
func (t *tracedRun) readInstruments(a *sut) {
	engine := snapshots(a.Regs)
	front := engine[:1]
	if a.Harness != nil {
		engine = engine[1:] // the router's registry holds no pipeline stages
	}
	cycleS, _ := engine.hist("ner_cycle_seconds")
	localS, _ := engine.hist("ner_stage_local_seconds")
	extractS, _ := engine.hist("ner_stage_extract_seconds")
	embedS, _ := engine.hist("ner_stage_embed_seconds")
	clusterS, reclusterings := engine.hist("ner_stage_cluster_seconds")
	poolS, _ := engine.hist("ner_stage_pool_seconds")
	classifyS, _ := engine.hist("ner_stage_classify_seconds")
	t.cycleS = cycleS
	t.put("localner.sentences", engine.counter("ner_sentences_tagged_total"))
	t.put("core.self_s", cycleS-localS-extractS-embedS-clusterS-poolS-classifyS)
	t.put("ctrie.busy_s", extractS)
	t.put("ctrie.sentences_rescanned", engine.counter("ner_sentences_rescanned_total"))
	t.put("ctrie.scan_cache_hits", engine.counter("ner_scan_cache_hits_total"))
	t.put("phrase.busy_s", embedS)
	t.put("phrase.embed_calls", engine.counter("ner_mentions_embedded_total"))
	t.put("phrase.embed_cache_hits", engine.counter("ner_embed_cache_hits_total"))
	t.put("cluster.busy_s", clusterS)
	t.put("cluster.reclusterings", float64(reclusterings))
	t.put("cluster.merges", engine.counter("ner_cluster_merges_total"))
	t.put("classifier.busy_s", poolS+classifyS)
	t.put("classifier.decisions", engine.counter("ner_clusters_classified_total"))
	t.put("classifier.verdict_cache_hits", engine.counter("ner_cluster_verdict_cache_hits_total"))
	t.put("core.surfaces_processed", engine.counter("ner_surfaces_processed_total"))
	t.put("core.surfaces_reused", engine.counter("ner_surface_outcomes_reused_total"))
	cycles := float64(a.Cycles())
	t.put("server.cycles", cycles)
	t.put("server.tweets_per_cycle", float64(tweetsOf(t.replay))/cycles)
	t.put("server.rejected_503", front.counter("ner_http_rejected_total"))

	var tagRPC, commitRPC, busy, routerWall, critical float64
	if a.Harness != nil {
		for _, cs := range a.Harness.Router.TakeCycleStats() {
			tagRPC += cs.TagRPCSum
			commitRPC += cs.CommitRPCSum
			busy += cs.BusySum
			routerWall += cs.WallSeconds
			critical += cs.TagRPCMax + cs.CommitRPCMax
		}
	}
	t.put("fleet.tag_rpc_s", tagRPC)
	t.put("fleet.commit_rpc_s", commitRPC)
	t.put("fleet.shard_busy_s", busy)
	t.put("fleet.transport_s", tagRPC+commitRPC-busy)
	t.put("fleet.router_self_s", routerWall-critical)
	t.put("fleet.degraded_cycles", front.counter("ner_fleet_degraded_cycles_total"))

	groupSum, groups := front.hist("ner_wal_group_size")
	groupMean := 0.0
	if groups > 0 {
		groupMean = groupSum / float64(groups)
	}
	t.put("durable.group_size_mean", groupMean)
	t.put("durable.wal_bytes", front.counter("ner_wal_bytes_total"))
	t.put("durable.snapshots_written", front.counter("ner_snapshot_writes_total"))
	t.put("durable.snapshot_bytes", front.gauge("ner_snapshot_bytes"))
}

// serialReads times the read endpoints at the final state, keeps the
// final stream for the comparison with (B), and reads the live heap.
func (t *tracedRun) serialReads(a *sut) (entities []byte, err error) {
	for _, ep := range []struct{ path, name string }{
		{"/entities", "server.entities_read_p50_ms"},
		{"/candidates", "server.candidates_read_p50_ms"},
	} {
		var ms []float64
		for i := 0; i < serialReads; i++ {
			t0 := time.Now()
			if _, err := get(t.client, a.URL+ep.path); err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		}
		t.pl[ep.name] = metric{Value: median(ms), Unit: perLayerUnits[ep.name], N: len(ms)}
	}
	if entities, err = get(t.client, a.URL+"/entities"); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.put("core.live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	return entities, nil
}

// resume, on the durable topology, aligns the server to the snapshot
// tail with an epilogue of serial bulk requests, closes it and reopens
// the directory at serving parallelism, as the end-to-end run does.
// Elsewhere the durable layer did no work and reports 0.
func (t *tracedRun) resume(a *sut) error {
	var rs resumeStat
	if t.w.Topology == topoDurable {
		epilogue := genStream((durableOptions.SnapshotEvery+resumeTail)*requestTweets, true, 1, t.seed)
		al := &liveAligner{s: a, client: t.client, stream: newStream(epilogue),
			ops: annotateOps(epilogue, 0, len(epilogue), requestTweets)}
		sent, err := alignTail(al, resumeTail, len(al.ops))
		t.r.Phases = append(t.r.Phases, phaseStat{Name: "epilogue", Attempted: sent, Failed: al.failed, Tweets: sent * requestTweets})
		t.r.check("epilogue: server stands exactly 96 cycles past its newest snapshot", err == nil && al.failed == 0, "%v; %d failed; %s", err, al.failed, al.first)
		dir := a.closeKeepingDir()
		var last *sut
		if rs, last, err = resume(dir, t.ckpt, serveWorkers); err != nil {
			os.RemoveAll(dir)
			return err
		}
		last.Close()
		t.r.Phases = append(t.r.Phases, phaseStat{Name: "resume", WallS: rs.median(), Attempted: resumeRounds, Samples: len(rs.rounds)})
		t.r.check("resume: recovery re-executed and byte-verified its tail", rs.replayCycles == resumeTail, "replayed %d cycles, want %d", rs.replayCycles, resumeTail)
	}
	t.put("durable.resume_s", zeroNaN(rs.median()))
	t.put("durable.snapshot_load_s", rs.loadS)
	t.put("durable.replay_s", rs.replayS)
	t.put("durable.replay_cycles", float64(rs.replayCycles))
	return nil
}

// zeroNaN maps the median of no rounds to the 0 a layer off the path
// reports.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// trainSeconds reads what training cost from the checkpoint's sidecar
// (0 when the checkpoint was supplied by hand).
func trainSeconds(ckpt string) float64 {
	b, err := os.ReadFile(ckpt + ".json")
	if err != nil {
		return 0
	}
	var info trainInfo
	if json.Unmarshal(b, &info) != nil {
		return 0
	}
	return info.TrainS
}

// tierRates times core.TagBatch over one 1,500-sentence short corpus
// at each precision tier (the evidence ROADMAP item 3(c) asks for).
func tierRates(ckpt string, seed int64) (map[string]float64, error) {
	g, err := loadEngine(ckpt, traceWorkers)
	if err != nil {
		return nil, err
	}
	tweets := genStream(1500, false, 0, seed)
	batch := make([]*types.Sentence, len(tweets))
	for i, t := range tweets {
		batch[i] = &types.Sentence{TweetID: i, Tokens: t.Tokens}
	}
	out := map[string]float64{}
	for _, tier := range []struct {
		p    nn.Precision
		name string
	}{{nn.F64, "localner.tag_f64_sents_per_s"}, {nn.F32, "localner.tag_f32_sents_per_s"}, {nn.I8, "localner.tag_i8_sents_per_s"}} {
		if err := g.SetPrecision(tier.p); err != nil {
			return nil, err
		}
		g.TagBatch(batch[:64]) // build the tier's packed weights before timing
		t0 := time.Now()
		g.TagBatch(batch)
		out[tier.name] = float64(len(batch)) / time.Since(t0).Seconds()
	}
	return out, nil
}
