package main

import "fmt"

// Topology names.
const (
	topoSingle  = "single"
	topoFleet   = "fleet"
	topoDurable = "durable"
)

// workload is the fixed plan of one workload: what is served, on
// which topology, and how much work each phase does. Work is fixed,
// not time: on long streams the cost per tweet grows with position, so
// only equal slices of the stream compare across commits.
type workload struct {
	Name     string
	Topology string

	// Short streams: each phase posts whole corpora of StreamTweets
	// tweets as bulk requests with POST /reset between streams. A long
	// stream (Short false) is one hot recurrent stream: primed with
	// bulk requests, then drained and paced as single-tweet requests.
	Short        bool
	StreamTweets int // tweets per short stream
	Corpora      int // distinct short corpora, cycled

	// Phase sizes, in streams for a short workload and in tweets for a
	// long one.
	Prime, Drain, Paced int
	// Rate is the open-loop request rate of the paced phase.
	Rate float64

	// Traced is the size of the serially replayed slice of the traced
	// run, same unit as the phases (it always starts at the prime).
	Traced int
}

// runSeconds is the run length the phase sizes below are cut for, and
// BENCHMARK.json's run_seconds: on the seed commit and the box the
// bounds were fixed on, drain and paced take at least 10 s each. Work
// is fixed, not time, so the driver's --seconds is recorded in the
// header and changes nothing (a test keeps the two numbers equal).
const runSeconds = 20

// primeCycles is how many serial bulk requests, one cycle each, prime
// a long stream: one snapshot cadence plus the resume tail, so that
// the durable server ends its prime exactly resumeTail cycles past its
// first snapshot and can be closed and reopened there. The other two
// long-stream workloads prime with the same requests, so the three
// start their timed phases from the same state.
var primeCycles = durableOptions.SnapshotEvery + resumeTail

// longStream is the plan the three long-stream workloads share: the
// same stream, slices and rate, so that their gaps are the topology's
// cost and nothing else.
func longStream(name, topology string) workload {
	return workload{
		Name: name, Topology: topology,
		Prime: 4000, Drain: 7000, Paced: 800, Rate: 80,
		Traced: 3000,
	}
}

// workloads in the order -workload all runs them: the durable one
// last, because it writes gigabytes and the writeback would be billed
// to whatever ran next.
var workloads = []workload{
	{
		Name: "short-streams", Topology: topoSingle,
		Short: true, StreamTweets: 1500, Corpora: 8,
		Prime: 2, Drain: 84, Paced: 25, Rate: 120,
		Traced: 20,
	},
	longStream("long-stream", topoSingle),
	longStream("long-stream-fleet", topoFleet),
	longStream("long-stream-durable", topoDurable),
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smokeExactTweets is the size of the exact pass in a smoke run.
const smokeExactTweets = 96

// smoke returns a miniature of the workload for the tier-1 smoke test:
// 200-tweet streams, a few hundred requests in all.
func (w workload) smoke() workload {
	if w.Short {
		w.StreamTweets, w.Corpora = 200, 3
		w.Prime, w.Drain, w.Paced, w.Traced = 1, 3, 2, 2
		w.Rate = 40
		return w
	}
	w.Prime, w.Drain, w.Paced, w.Traced = 256, 64, 40, 40
	w.Rate = 40
	return w
}

// endToEndUnits names the end-to-end metrics and their units. Every
// one of them applies to every workload. (Restart time applies to the
// durable workload alone, so it is the per-layer durable.resume_s.)
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"drain_tweets_per_s": "tweets/s",
	"annotate_p50_ms":    "ms",
	"slo_ok_ratio":       "ratio",
	"peak_rss_mb":        "MB",
	"f1_final":           "ratio",
}

// perLayerUnits names the per-layer metrics of the traced run,
// layer.metric with the layers this repository's packages (plus the
// load generator and the trace itself), and their units. A layer that
// is not on a workload's path reports 0: it did no work there.
var perLayerUnits = map[string]string{
	"tokenizer.busy_s":              "s",
	"localner.busy_s":               "s",
	"localner.sentences":            "count",
	"localner.tag_f64_sents_per_s":  "sents/s",
	"localner.tag_f32_sents_per_s":  "sents/s",
	"localner.tag_i8_sents_per_s":   "sents/s",
	"core.global_busy_s":            "s",
	"core.self_s":                   "s",
	"core.surfaces_processed":       "count",
	"core.surfaces_reused":          "count",
	"core.live_heap_mb":             "MB",
	"core.train_s":                  "s",
	"ctrie.busy_s":                  "s",
	"ctrie.sentences_rescanned":     "count",
	"ctrie.scan_cache_hits":         "count",
	"phrase.busy_s":                 "s",
	"phrase.embed_calls":            "count",
	"phrase.embed_cache_hits":       "count",
	"cluster.busy_s":                "s",
	"cluster.reclusterings":         "count",
	"cluster.merges":                "count",
	"classifier.busy_s":             "s",
	"classifier.decisions":          "count",
	"classifier.verdict_cache_hits": "count",
	"durable.encode_s":              "s",
	"durable.append_s":              "s",
	"durable.fsync_wait_s":          "s",
	"durable.group_size_mean":       "records",
	"durable.wal_bytes":             "bytes",
	"durable.capture_s":             "s",
	"durable.snapshot_write_s":      "s",
	"durable.snapshots_written":     "count",
	"durable.snapshot_bytes":        "bytes",
	"durable.resume_s":              "s",
	"durable.snapshot_load_s":       "s",
	"durable.replay_s":              "s",
	"durable.replay_cycles":         "count",
	"fleet.tag_rpc_s":               "s",
	"fleet.commit_rpc_s":            "s",
	"fleet.shard_busy_s":            "s",
	"fleet.transport_s":             "s",
	"fleet.router_self_s":           "s",
	"fleet.degraded_cycles":         "count",
	"server.http_self_s":            "s",
	"server.render_s":               "s",
	"server.cycles":                 "count",
	"server.tweets_per_cycle":       "tweets",
	"server.rejected_503":           "count",
	"server.entities_read_p50_ms":   "ms",
	"server.candidates_read_p50_ms": "ms",
	"server.prime_s":                "s",
	"checkpoint.load_s":             "s",
	"trace.ledger_gap_ratio":        "ratio",
	"trace.overhead_ratio":          "ratio",
	"trace.reply_mismatches":        "count",
}
