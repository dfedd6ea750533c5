package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nerglobalizer/internal/metrics"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/server"
	"nerglobalizer/internal/tokenizer"
	"nerglobalizer/internal/types"
)

// setupRounds is how many times a run on a plain topology starts cold
// (load checkpoint, build topology, prime); setup_s is the median. The
// last round's topology serves the timed phases.
const setupRounds = 5

// pacedGrace is how long past the end of the schedule the paced phase
// keeps sending; a request still unsent then is dropped and counted as
// failed, which invalidates the run.
const pacedGrace = 2 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 when not a sample
	// statistic).
	N int `json:"n,omitempty"`
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// header identifies what produced a result row.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Smoke      bool   `json:"smoke,omitempty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
}

// result is one workload run: the row the parent prints.
type result struct {
	Header    header            `json:"header"`
	OutputsOK bool              `json:"outputs_ok"`
	Checks    []check           `json:"checks"`
	Phases    []phaseStat       `json:"phases"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Extra are the load generator's ungated numbers of an end-to-end
	// run, printed beside the end-to-end metrics.
	Extra map[string]metric `json:"extra,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// finish sets OutputsOK from the checks.
func (r *result) finish() {
	r.OutputsOK = true
	for _, c := range r.Checks {
		if !c.OK {
			r.OutputsOK = false
		}
	}
}

// attempted and failed total the operations of every phase.
func (r *result) attempted() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

func newHeader(w workload, seed int64, seconds int, trace, smoke bool) header {
	return header{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), SIMD: nn.ActiveSIMD().String(),
		Commit: gitCommit(),
	}
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stream is the tweets of one phase and what the program said about
// them. For a short workload it is the concatenation of every
// stream the run posts.
type stream struct {
	Tweets []*types.Sentence
	// ID is the tweet ID the server assigned to each tweet, -1 until
	// its request has been verified. IDs restart at every reset.
	ID []int
	// SentLens are the token counts of each tweet's sentences as the
	// program split them; they map sentence-relative entity spans back
	// to tweet-relative gold spans.
	SentLens [][]int
}

func newStream(tweets []*types.Sentence) *stream {
	s := &stream{Tweets: tweets, ID: make([]int, len(tweets)), SentLens: make([][]int, len(tweets))}
	for i := range s.ID {
		s.ID[i] = -1
	}
	return s
}

// verifyOps checks every op of a phase: answered 200, consecutive
// tweet IDs, the sentence count the tokenizer gives for the text sent.
// It fills the stream's ID and SentLens maps and returns the number of
// failed ops and the first failure.
func (s *stream) verifyOps(ops []op, results []opResult) (failed int, first string) {
	fail := func(i int, format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf("op %d: ", i) + fmt.Sprintf(format, args...)
		}
	}
	for i, o := range ops {
		r := results[i]
		if r.unsent {
			fail(i, "never sent")
			continue
		}
		if r.status != http.StatusOK {
			fail(i, "status %d", r.status)
			continue
		}
		if o.reset {
			continue
		}
		var reply struct {
			Sentences []server.SentenceJSON `json:"sentences"`
		}
		if err := json.Unmarshal(r.body, &reply); err != nil {
			fail(i, "bad reply: %v", err)
			continue
		}
		want := 0
		for _, t := range o.tweets {
			want += len(tokenizer.SplitSentences(tokenizer.Tokenize(tweetText(s.Tweets[t]))))
		}
		if len(reply.Sentences) != want {
			fail(i, "%d sentences, want %d", len(reply.Sentences), want)
			continue
		}
		// Sentences come back in request order, tweets contiguous.
		ti, ok := -1, true
		prevID := -1
		for _, sj := range reply.Sentences {
			if sj.TweetID != prevID {
				ti++
				if ti >= len(o.tweets) || (prevID >= 0 && sj.TweetID != prevID+1) {
					ok = false
					break
				}
				prevID = sj.TweetID
				s.ID[o.tweets[ti]] = sj.TweetID
				s.SentLens[o.tweets[ti]] = nil
			}
			s.SentLens[o.tweets[ti]] = append(s.SentLens[o.tweets[ti]], len(sj.Tokens))
		}
		if !ok || ti != len(o.tweets)-1 {
			fail(i, "tweet ids not consecutive or count mismatch")
		}
	}
	return failed, first
}

// finalF1 fetches /entities and scores tweets[from:to] — which must be
// exactly the stream the server currently holds — against the
// generator's gold: macro-F1 with exact span and type match, tweet IDs
// mapped through the annotate replies. It also checks that the server
// holds those tweets and no others.
func (s *stream) finalF1(client *http.Client, base string, from, to int) (f1 float64, err error) {
	body, err := get(client, base+"/entities")
	if err != nil {
		return 0, err
	}
	var ents []server.SentenceEntitiesJSON
	if err := json.Unmarshal(body, &ents); err != nil {
		return 0, fmt.Errorf("/entities: %v", err)
	}
	byID := make(map[int]int, to-from) // server tweet ID → stream index
	for t := from; t < to; t++ {
		if s.ID[t] < 0 {
			return 0, fmt.Errorf("tweet %d was never acknowledged", t)
		}
		byID[s.ID[t]] = t
	}
	if len(byID) != to-from {
		return 0, fmt.Errorf("duplicate tweet ids in replies")
	}
	gold := make(map[types.SentenceKey][]types.Entity, to-from)
	pred := make(map[types.SentenceKey][]types.Entity, to-from)
	for t := from; t < to; t++ {
		gold[types.SentenceKey{TweetID: t}] = s.Tweets[t].Gold
	}
	seen := make(map[int]bool, to-from)
	for _, e := range ents {
		t, ok := byID[e.TweetID]
		if !ok {
			return 0, fmt.Errorf("/entities holds tweet id %d that was not sent", e.TweetID)
		}
		seen[t] = true
		lens := s.SentLens[t]
		if e.SentID >= len(lens) {
			return 0, fmt.Errorf("/entities sentence %d/%d beyond the reply's %d sentences", e.TweetID, e.SentID, len(lens))
		}
		off := 0
		for _, n := range lens[:e.SentID] {
			off += n
		}
		key := types.SentenceKey{TweetID: t}
		for _, ej := range e.Entities {
			typ, err := types.ParseEntityType(ej.Type)
			if err != nil {
				return 0, err
			}
			pred[key] = append(pred[key], types.Entity{Span: types.Span{Start: off + ej.Start, End: off + ej.End}, Type: typ})
		}
	}
	if len(seen) != to-from {
		return 0, fmt.Errorf("final stream holds %d tweets, %d were sent", len(seen), to-from)
	}
	return metrics.Evaluate(gold, pred).MacroF1(), nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// plan is the request schedule of one run, generated from the seed.
type plan struct {
	w      workload
	stream *stream
	// prime, drain and paced are the ops of the three traffic phases;
	// verify holds the extra serial streams of a short workload, one op
	// list per stream.
	prime, drain, paced []op
	verify              [][]op
	verifyBounds        [][2]int
	// lastBounds is the tweet range of the stream the server holds when
	// paced traffic has drained.
	lastBounds [2]int
}

// verifyStreams is how many extra corpora a short workload replays
// serially after traffic to score final entities per stream.
const verifyStreams = 3

func makePlan(w workload, seed int64) *plan {
	p := &plan{w: w}
	if !w.Short {
		// The seed orders the tweets inside each phase and never moves a
		// tweet from one phase to another: every seed primes, drains and
		// paces the same tweets, so the work of a phase does not depend
		// on the seed, only which tweet meets which state does.
		total := w.Prime + w.Drain + w.Paced
		tweets, rng := genCorpus(total, true, 0), seedRand(seed, 0)
		shuffle(tweets[:w.Prime], rng)
		shuffle(tweets[w.Prime:w.Prime+w.Drain], rng)
		shuffle(tweets[w.Prime+w.Drain:], rng)
		p.stream = newStream(tweets)
		p.prime = evenOps(p.stream.Tweets, 0, w.Prime, primeCycles)
		p.drain = annotateOps(p.stream.Tweets, w.Prime, w.Prime+w.Drain, 1)
		p.paced = annotateOps(p.stream.Tweets, w.Prime+w.Drain, total, 1)
		pace(p.paced, w.Rate)
		p.lastBounds = [2]int{0, total}
		return p
	}
	corpora := make([][]*types.Sentence, w.Corpora)
	for c := range corpora {
		corpora[c] = genStream(w.StreamTweets, false, c, seed)
	}
	nVerify := verifyStreams
	if nVerify > w.Corpora {
		nVerify = w.Corpora
	}
	var tweets []*types.Sentence
	bounds := []int{0}
	for k := 0; k < w.Prime+w.Drain+w.Paced+nVerify; k++ {
		tweets = append(tweets, corpora[k%w.Corpora]...)
		bounds = append(bounds, len(tweets))
	}
	p.stream = newStream(tweets)
	streamOps := func(k int) []op {
		ops := []op{{reset: true, barrier: true}}
		return append(ops, annotateOps(tweets, bounds[k], bounds[k+1], requestTweets)...)
	}
	k := 0
	for ; k < w.Prime; k++ {
		p.prime = append(p.prime, streamOps(k)...)
	}
	for ; k < w.Prime+w.Drain; k++ {
		p.drain = append(p.drain, streamOps(k)...)
	}
	for ; k < w.Prime+w.Drain+w.Paced; k++ {
		p.paced = append(p.paced, streamOps(k)...)
	}
	pace(p.paced, w.Rate)
	p.lastBounds = [2]int{bounds[k-1], bounds[k]}
	for ; k < len(bounds)-1; k++ {
		p.verify = append(p.verify, streamOps(k))
		p.verifyBounds = append(p.verifyBounds, [2]int{bounds[k], bounds[k+1]})
	}
	return p
}

func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// tweetsOf counts the tweets a phase's ops carry.
func tweetsOf(ops []op) int {
	n := 0
	for _, o := range ops {
		n += len(o.tweets)
	}
	return n
}

// phaseOut is what a traffic phase produced.
type phaseOut struct {
	stat    phaseStat
	ops     []op
	results []opResult
	paced   bool
}

// latencies are the phase's per-request latencies in milliseconds,
// annotate requests answered 200 only.
func (po phaseOut) latencies() []float64 {
	var lat []float64
	for i, o := range po.ops {
		if res := po.results[i]; !o.reset && !res.unsent && res.status == http.StatusOK {
			lat = append(lat, res.latencyMS(o, po.paced))
		}
	}
	return lat
}

// runPhase drives one traffic phase, verifies its replies and records
// its accounting and checks on r.
func (p *plan) runPhase(r *result, name string, client *http.Client, base string, ops []op, clients int, paced bool) phaseOut {
	var cutoff time.Duration
	if paced && len(ops) > 0 {
		cutoff = ops[len(ops)-1].due + pacedGrace
	}
	results, wall := runOps(client, base, ops, clients, paced, cutoff)
	failed, first := p.stream.verifyOps(ops, results)
	po := phaseOut{ops: ops, results: results, paced: paced}
	st := phaseStat{Name: name, WallS: wall.Seconds(), Attempted: len(ops), Failed: failed, Tweets: tweetsOf(ops)}
	for i, o := range ops {
		res := results[i]
		if res.unsent {
			st.Unsent++
		} else if paced {
			if late := float64(res.sent-o.due) / float64(time.Millisecond); late > st.MaxLateMS {
				st.MaxLateMS = late
			}
		}
	}
	st.Samples = len(po.latencies())
	po.stat = st
	r.Phases = append(r.Phases, st)
	r.check(name+": every request answered 200 with the right sentences", failed == 0, "%d of %d failed; %s", failed, len(ops), first)
	if paced {
		r.check(name+": every due request was sent", st.Unsent == 0, "%d unsent", st.Unsent)
	}
	return po
}

// setupRound is one set-up round: when it started and the seconds it
// took.
type setupRound struct {
	start time.Time
	took  float64
}

// coldStart builds the topology from the checkpoint and primes it with
// serial bulk requests, and returns what that took. record adds the
// prime's accounting and checks to r.
func (p *plan) coldStart(r *result, ckpt string, workers int, client *http.Client, record bool) (*sut, float64, error) {
	t0 := time.Now()
	s, err := buildSUT(p.w.Topology, ckpt, workers)
	if err != nil {
		return nil, 0, err
	}
	results, _ := runOps(client, s.URL, p.prime, 1, false, 0)
	took := time.Since(t0).Seconds()
	if record {
		failed, first := p.stream.verifyOps(p.prime, results)
		r.Phases = append(r.Phases, phaseStat{Name: "prime", WallS: took, Attempted: len(p.prime), Failed: failed, Tweets: tweetsOf(p.prime), Samples: 1})
		r.check("prime: every request answered 200 with the right sentences", failed == 0, "%d of %d failed; %s", failed, len(p.prime), first)
	}
	return s, took, nil
}

// setUp brings the topology up several times and returns the last one,
// primed and listening, with the time of each round; setup_s is the
// median. On the plain topologies a round is a cold start: load the
// checkpoint, build, prime. The durable server is started cold and
// primed once, which leaves it resumeTail cycles past its first
// snapshot; it is then closed, and its rounds are restarts: reopen the
// directory and recover to warm, which is what a user of -data-dir
// waits for.
func (p *plan) setUp(r *result, ckpt string, workers int, client *http.Client) (*sut, []setupRound, error) {
	if p.w.Topology != topoDurable {
		var rounds []setupRound
		var s *sut
		for round := 0; round < setupRounds; round++ {
			if s != nil {
				s.Close()
			}
			start := time.Now()
			var took float64
			var err error
			if s, took, err = p.coldStart(r, ckpt, workers, client, round == setupRounds-1); err != nil {
				return nil, nil, err
			}
			rounds = append(rounds, setupRound{start, took})
		}
		return s, rounds, nil
	}
	cold, _, err := p.coldStart(r, ckpt, workers, client, true)
	if err != nil {
		return nil, nil, err
	}
	_, err = alignTail(&liveAligner{s: cold, client: client}, resumeTail, 0)
	r.check("prime: server stands exactly 96 cycles past its newest snapshot", err == nil, "%v", err)
	dir := cold.closeKeepingDir()
	rs, s, err := resume(dir, ckpt, workers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	s.listen()
	r.Phases = append(r.Phases, phaseStat{Name: "resume", WallS: rs.median(), Attempted: resumeRounds, Samples: len(rs.rounds)})
	r.check("resume: recovery re-executed and byte-verified its tail", rs.replayCycles == resumeTail, "replayed %d cycles, want %d", rs.replayCycles, resumeTail)
	return s, rs.rounds, nil
}

// runEndToEnd is the untraced run: set-up, drain, paced, verify.
func runEndToEnd(w workload, seed int64, ckpt string, r *result) error {
	p := makePlan(w, seed)
	client := newLoadClient()
	defer client.CloseIdleConnections()

	probe := startProbe()
	defer probe.stop()
	s, rounds, err := p.setUp(r, ckpt, serveWorkers, client)
	if err != nil {
		return err
	}
	defer s.Close()
	t1 := probe.mark()
	drain := p.runPhase(r, "drain", client, s.URL, p.drain, loadClients, false)
	t2 := probe.mark()
	paced := p.runPhase(r, "paced", client, s.URL, p.paced, loadClients, true)
	t3 := probe.mark()
	probe.stop()
	f1, nf1 := p.verifyFinal(r, client, s.URL)

	// The three wall-clock metrics are reported at the nominal machine's
	// speed (probe.go), each scaled by the factor of its own phase; the
	// raw readings and the factors go beside them. A metric that cannot
	// be computed is absent, never 0.
	r.EndToEnd = map[string]metric{}
	r.Extra = map[string]metric{}
	put := func(name string, v float64, n int) {
		r.EndToEnd[name] = metric{Value: v, Unit: endToEndUnits[name], N: n}
	}
	scaled := func(name string, raw, factor float64, n, samples int, rate bool) {
		r.Extra["raw."+name] = metric{Value: raw, Unit: endToEndUnits[name], N: n}
		r.Extra["machine."+name+"_factor"] = metric{Value: factor, Unit: "ratio", N: samples}
		if rate {
			put(name, raw*factor, n)
		} else {
			put(name, raw/factor, n)
		}
	}
	// Every set-up round is scaled by the machine's speed during that
	// round and setup_s is the median scaled round; the factor printed
	// beside it is the one that takes the median raw round there.
	var rawRounds, scaledRounds []float64
	samples := 0
	for _, round := range rounds {
		from := round.start.Sub(probe.t0)
		f, n := probe.factor(from, from+time.Duration(round.took*float64(time.Second)))
		rawRounds, scaledRounds = append(rawRounds, round.took), append(scaledRounds, round.took/f)
		samples += n
	}
	scaled("setup_s", median(rawRounds), median(rawRounds)/median(scaledRounds), len(rawRounds), samples, false)
	fDrain, nDrain := probe.factor(t1, t2)
	fPaced, nPaced := probe.factor(t2, t3)
	scaled("drain_tweets_per_s", float64(drain.stat.Tweets)/drain.stat.WallS, fDrain, drain.stat.Samples, nDrain, true)
	lat := summarize(paced.latencies())
	if !math.IsNaN(lat.P50) {
		scaled("annotate_p50_ms", lat.P50, fPaced, lat.N, nPaced, false)
	}
	if ratio, due := sloOKRatio(paced.ops, paced.results, sloLimitMS); due > 0 {
		put("slo_ok_ratio", ratio, due)
	}
	if nf1 > 0 {
		put("f1_final", f1, nf1)
	}
	for k, m := range loadgenMetrics(drain, paced, lat) {
		r.Extra[k] = m
	}
	rss, err := peakRSSMB()
	r.check("peak RSS readable", err == nil, "%v", err)
	if err == nil {
		put("peak_rss_mb", rss, 0)
	}
	return nil
}

// verifyFinal runs after traffic has drained: the stream the server
// holds must be exactly the tweets sent, and its entities are scored
// against gold. A short workload also replays a few corpora serially
// and scores each; the F1 returned is the mean over streams.
func (p *plan) verifyFinal(r *result, client *http.Client, base string) (f1 float64, n int) {
	sum := 0.0
	score := func(name string, b [2]int) {
		f, err := p.stream.finalF1(client, base, b[0], b[1])
		r.check(name+": final stream holds exactly the tweets sent", err == nil, "%v", err)
		if err == nil {
			sum += f
			n++
		}
	}
	score("verify", p.lastBounds)
	for i, ops := range p.verify {
		name := fmt.Sprintf("verify stream %d", i)
		results, _ := runOps(client, base, ops, 1, false, 0)
		failed, first := p.stream.verifyOps(ops, results)
		r.Phases = append(r.Phases, phaseStat{Name: name, Attempted: len(ops), Failed: failed, Tweets: tweetsOf(ops)})
		r.check(name+": every request answered 200 with the right sentences", failed == 0, "%d failed; %s", failed, first)
		score(name, p.verifyBounds[i])
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// loadgenMetrics are the load generator's own numbers: reported, never
// gated (percentiles above p50 moved 2x between identical runs).
func loadgenMetrics(drain, paced phaseOut, lat latencySummary) map[string]metric {
	m := map[string]metric{
		"loadgen.max_late_ms":   {Value: paced.stat.MaxLateMS, Unit: "ms"},
		"loadgen.unsent_at_end": {Value: float64(paced.stat.Unsent), Unit: "count"},
	}
	put := func(name string, v float64, n int) {
		if !math.IsNaN(v) {
			m[name] = metric{Value: v, Unit: "ms", N: n}
		}
	}
	put("loadgen.annotate_p95_ms", lat.P95, lat.N)
	put("loadgen.annotate_max_ms", lat.Max, lat.N)
	d := summarize(drain.latencies())
	put("loadgen.drain_p50_ms", d.P50, d.N)
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
