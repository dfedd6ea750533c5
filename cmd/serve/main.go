// Command serve runs the NER Globalizer as an HTTP service, in one of
// three roles. The default, -role single, serves a whole pipeline from
// one process. The fleet roles split the same pipeline across
// processes: -role shard serves one hash-partitioned engine replica,
// and -role router fronts a set of shards with the deterministic
// surface-ownership router — client-visible endpoints and payloads are
// identical in all topologies. Every role exposes its metrics on
// /metrics and /statusz. The kernel tier is the best the CPU supports
// unless the NER_SIMD environment variable names another (generic,
// sse2, avx2, neon).
//
//	serve -scale small -addr :8080
//	serve -scale small -save model.ckpt
//	serve -model model.ckpt
//
//	# durable: snapshot + WAL under ./state, resume warm after a crash
//	serve -model model.ckpt -data-dir ./state -snapshot-every 64 -fsync group
//
//	# two-shard fleet (every shard loads the same checkpoint):
//	serve -role shard -model model.ckpt -shard-index 0 -shard-count 2 -addr :8081
//	serve -role shard -model model.ckpt -shard-index 1 -shard-count 2 -addr :8082
//	serve -role router -shards http://localhost:8081,http://localhost:8082 -addr :8080
//
// Then:
//
//	curl -s localhost:8080/annotate -d '{"tweets":["Cases rise in Italy again"]}'
//	curl -s localhost:8080/candidates
//	curl -s localhost:8080/entities
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/statusz
//	curl -s -X POST localhost:8080/reset
//
// SIGINT/SIGTERM shut the listener down gracefully: in-flight requests
// finish, the scheduler drains, and the final metrics snapshot is
// logged before exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	// Registers the profiling handlers on http.DefaultServeMux; they are
	// only reachable when -pprof names an address to serve that mux on.
	_ "net/http/pprof"

	"nerglobalizer/internal/checkpoint"
	"nerglobalizer/internal/core"
	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/experiments"
	"nerglobalizer/internal/fleet"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/server"
)

// newHTTPServer wraps a handler with explicit read-side timeouts so a
// client that trickles headers or body bytes (Slowloris) cannot pin a
// connection forever. There is deliberately no WriteTimeout: /annotate
// legitimately blocks for a full execution cycle, and cycle duration
// scales with stream size.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	role := flag.String("role", "single", "serving role: single (whole pipeline in-process), shard (one fleet partition), router (front a shard fleet)")
	shardURLs := flag.String("shards", "", "router role: comma-separated shard base URLs in index order (http://host:port)")
	shardIndex := flag.Int("shard-index", 0, "shard role: this shard's partition index (0-based)")
	shardCount := flag.Int("shard-count", 1, "shard role: total shards in the fleet")
	model := flag.String("model", "", "load a checkpoint instead of training (single and shard roles)")
	save := flag.String("save", "", "save the trained pipeline to this path")
	scaleName := flag.String("scale", "small", "training scale when no -model is given: small or full")
	workers := flag.Int("workers", 0, "per-request worker goroutines (0 = GOMAXPROCS, 1 = serial); annotations are identical at every setting")
	precName := flag.String("precision", "f64", "inference precision tier: f64 (exact), f32 (packed float32 kernels), i8 (dynamic int8 GEMM); training always runs f64; fleets must run one tier on every shard")
	rpcTimeout := flag.Duration("rpc-timeout", 30*time.Second, "router role: per-shard RPC deadline")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
	dataDir := flag.String("data-dir", "", "durability root: snapshot + WAL state lives here and a restart resumes the stream warm and byte-identical; each process (single, every shard, the router) needs its own directory; empty disables durability")
	snapshotEvery := flag.Int("snapshot-every", 0, "cycles between snapshots when -data-dir is set (0 = default 64); the WAL tail past the latest snapshot is what replays on restart")
	fsyncName := flag.String("fsync", "group", "WAL flush policy when -data-dir is set: group (no cycle is acked before an fsync covers its record — crash-safe; concurrent and consecutive cycles share one fsync) or none (page cache only — faster, loses the tail on power loss)")
	flag.Parse()

	parallel.SetDefaultWorkers(*workers)
	nn.SetMatMulWorkers(*workers)

	fsync, err := durable.ParseFsync(*fsyncName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	dopts := durable.Options{SnapshotEvery: *snapshotEvery, Fsync: fsync}

	prec, err := nn.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	log.Printf("SIMD kernels: %s (best supported %s)", nn.ActiveSIMD(), nn.BestSIMD())

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof serving on http://%s/debug/pprof/", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	switch *role {
	case "router":
		runRouter(*addr, *shardURLs, *rpcTimeout, *dataDir, dopts)
		return
	case "single", "shard":
	default:
		log.Fatalf("serve: unknown role %q (want single, shard, or router)", *role)
	}

	g := loadOrTrain(*model, *save, *scaleName, *workers, prec)

	if *role == "shard" {
		runShard(*addr, g, *shardIndex, *shardCount, *dataDir, dopts, map[string]string{"workers": strconv.Itoa(*workers)})
		return
	}

	srv := server.New(g)
	run(srv, "single", fmt.Sprintf("NER Globalizer serving on %s", *addr), *addr, *dataDir, dopts)
	log.Printf("shutdown complete after %d execution cycles (inference precision %s)", srv.Cycles(), srv.Precision())
}

// process is what the three roles have in common: single server, shard
// and router each attach a registry, recover from a data dir behind
// their readiness gate, serve a handler and shut down.
type process interface {
	SetObserver(*obs.Registry)
	StartDurable(dir string, opts durable.Options) error
	WaitWarm() error
	Handler() http.Handler
	Close()
}

// run is the one serving sequence of every role: attach the registry,
// start recovery (the listener comes up beside it, answering 503
// "replaying" until it completes), serve until SIGINT/SIGTERM, close,
// and log the final metrics snapshot. Close is the process's own: a
// shard's, for one, ends the frame connections that were hijacked from
// the HTTP server and that its shutdown therefore does not see.
func run(p process, name, banner, addr, dataDir string, dopts durable.Options) {
	reg := obs.NewRegistry()
	p.SetObserver(reg)
	if dataDir != "" {
		if err := p.StartDurable(dataDir, dopts); err != nil {
			log.Fatalf("serve: %v", err)
		}
		announceRecovery(name, p.WaitWarm)
	}
	httpSrv := newHTTPServer(addr, p.Handler())
	fmt.Println(banner)
	serveUntilSignal(httpSrv)
	p.Close()
	logSnapshot(reg)
}

// loadOrTrain resolves the engine for the single and shard roles.
func loadOrTrain(model, save, scaleName string, workers int, prec nn.Precision) *core.Globalizer {
	var g *core.Globalizer
	if model != "" {
		log.Printf("loading checkpoint %s", model)
		loaded, err := checkpoint.LoadFile(model)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		g = loaded
		// Checkpoints persist the training-time config; the serving
		// parallelism cap is an operational choice made here, and old
		// checkpoints decode with packing off.
		g.SetWorkers(workers)
		g.SetInferBatch(core.DefaultConfig().InferBatchTokens)
		if err := g.SetPrecision(prec); err != nil {
			log.Fatalf("serve: %v", err)
		}
	} else {
		var scale experiments.Scale
		switch scaleName {
		case "small":
			scale = experiments.SmallScale()
		case "full":
			scale = experiments.FullScale()
		default:
			log.Fatalf("serve: unknown scale %q", scaleName)
		}
		scale.Core.Workers = workers
		scale.Core.InferPrecision = prec.String()
		log.Printf("training pipeline at %s scale...", scale.Name)
		g = core.New(scale.Core)
		g.PretrainEncoder(corpus.PretrainTweets(scale.PretrainN, 21))
		g.FineTuneLocal(scale.TrainSet().Sentences)
		g.TrainGlobal(scale.D5().Sentences)
		if save != "" {
			if err := checkpoint.SaveFile(save, g); err != nil {
				log.Fatalf("serve: %v", err)
			}
			log.Printf("saved checkpoint to %s", save)
		}
	}
	return g
}

// runShard serves one fleet partition. A fleet's shards must be
// homogeneous (same checkpoint, precision, SIMD tier); /statusz reports
// the engine's precision and tier beside settings, so the router can
// surface them for verification.
func runShard(addr string, g *core.Globalizer, index, count int, dataDir string, dopts durable.Options, settings map[string]string) {
	sh, err := fleet.NewShard(g, index, count, settings)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	name := fmt.Sprintf("shard %d/%d", index, count)
	run(sh, name, fmt.Sprintf("NER Globalizer %s serving on %s", name, addr), addr, dataDir, dopts)
	log.Printf("%s shutdown complete", name)
}

// runRouter fronts a shard fleet.
func runRouter(addr, shardURLs string, rpcTimeout time.Duration, dataDir string, dopts durable.Options) {
	var urls []string
	for _, u := range strings.Split(shardURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatalf("serve: -role router requires -shards (comma-separated shard base URLs)")
	}
	clients := make([]*fleet.ShardClient, len(urls))
	for i, u := range urls {
		clients[i] = fleet.NewShardClient(i, u)
	}
	router := fleet.NewRouter(clients)
	router.SetRPCTimeout(rpcTimeout)
	// The router's recovery re-drives lagging shards, so the shards must
	// already be answering when it starts: run starts it only now, with
	// the clients wired.
	run(router, "router", fmt.Sprintf("NER Globalizer router serving on %s (%d shards)", addr, len(urls)), addr, dataDir, dopts)
	log.Printf("router shutdown complete after %d execution cycles", router.Cycles())
}

// announceRecovery logs the durability replay's outcome without
// blocking startup, and exits the process if the on-disk state cannot
// be restored — a broken data dir is operator trouble, not something to
// limp past.
func announceRecovery(role string, wait func() error) {
	go func() {
		if err := wait(); err != nil {
			log.Fatalf("serve: %s recovery: %v", role, err)
		}
		log.Printf("%s durability replay complete, serving warm", role)
	}()
}

// serveUntilSignal runs the listener until SIGINT/SIGTERM, then drains
// in-flight requests (bounded) before returning.
func serveUntilSignal(httpSrv *http.Server) {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case sig := <-sigc:
		log.Printf("received %s, shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("serve: shutdown: %v", err)
		httpSrv.Close()
	}
}

func logSnapshot(reg *obs.Registry) {
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		log.Printf("serve: final snapshot: %v", err)
		return
	}
	log.Printf("final metrics snapshot: %s", snap)
}
