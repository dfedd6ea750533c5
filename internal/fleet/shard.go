package fleet

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
)

// defaultShardAdmission bounds concurrently admitted mutating RPCs per
// shard. The router runs one cycle at a time, so the bound only bites
// when a shard falls behind or extra routers appear — then rejections
// surface as 503s the router can propagate instead of queue growth.
const defaultShardAdmission = 4

// shardRetryAfterSeconds is the Retry-After hint on shard saturation.
const shardRetryAfterSeconds = 1

// shardConnIdleTimeout is how long a frame connection may sit between
// calls before the shard closes it (the router redials on its next
// call); it matches cmd/serve's HTTP IdleTimeout.
const shardConnIdleTimeout = 2 * time.Minute

// shardFrameTimeout bounds reading the rest of a frame once its first
// byte arrived, and writing a reply — cmd/serve's HTTP ReadTimeout.
const shardFrameTimeout = 30 * time.Second

// Shard is the fleet's unit of scale-out: a frame loop in front of one
// server.Replica — the engine, its lock, its log and its reads, the same
// ones the single server runs — that owns the surfaces ctrie.OwnerShard
// assigns to its index, plus what only a shard needs: admission, the
// commit seq gate and the cached last response.
type Shard struct {
	rep *server.Replica
	// mu orders commits and resets: the seq gate, the cycle it admits
	// and lastResp move together. Taken before the replica's engine lock.
	mu sync.Mutex
	// lastResp answers idempotent retries of the last committed cycle
	// (a commit can apply even when the router times out waiting).
	lastResp *CommitResponse

	index, count int
	settings     map[string]string

	// admit bounds concurrently admitted mutating RPCs.
	admitMu sync.Mutex
	admit   chan struct{}

	o atomic.Pointer[shardObs]

	// Hijacked frame connections, tracked so Close can end them: the
	// HTTP server forgets a connection once it is hijacked.
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	connWG   sync.WaitGroup
	idleWait time.Duration

	// gate refuses mutating RPCs while recovery replays and after a
	// durability failure, and the stream reads while it replays.
	gate durable.Gate
}

// shardObs is the shard-side metric set.
type shardObs struct {
	reg *obs.Registry

	requests      *obs.Counter   // ner_fleet_shard_requests_total
	rejected      *obs.Counter   // ner_fleet_shard_rejected_total
	tagSeconds    *obs.Histogram // ner_fleet_shard_tag_seconds
	commitSeconds *obs.Histogram // ner_fleet_shard_commit_seconds
}

func newShardObs(reg *obs.Registry) *shardObs {
	if reg == nil {
		return nil
	}
	return &shardObs{
		reg: reg,
		requests: reg.Counter("ner_fleet_shard_requests_total",
			"HTTP requests and RPC frames served by this shard."),
		rejected: reg.Counter("ner_fleet_shard_rejected_total",
			"Fleet RPCs rejected with 503 because shard admission was saturated."),
		tagSeconds: reg.Histogram("ner_fleet_shard_tag_seconds",
			"Wall-clock of the Local NER a commit runs over its whole batch before applying the cycle.", nil),
		commitSeconds: reg.Histogram("ner_fleet_shard_commit_seconds",
			"Wall-clock of commit RPCs (tagging + stream update + owned global phase).", nil),
	}
}

// NewShard wraps an engine as shard index of count, restricting its
// global phase to owned surfaces (which resets stream state). settings
// is the resolved serving configuration the shard reports through
// /statusz, so a fleet operator can verify homogeneity; nil is fine.
func NewShard(g *core.Globalizer, index, count int, settings map[string]string) (*Shard, error) {
	if err := g.SetShardOwnership(index, count); err != nil {
		return nil, err
	}
	if settings == nil {
		settings = map[string]string{}
	}
	s := &Shard{
		index:    index,
		count:    count,
		settings: settings,
		admit:    make(chan struct{}, defaultShardAdmission),
		conns:    make(map[net.Conn]struct{}),
		idleWait: shardConnIdleTimeout,
	}
	s.rep = server.NewReplica(g, &s.gate, index)
	return s, nil
}

// SetObserver attaches a metrics registry to the shard and its engine.
func (s *Shard) SetObserver(reg *obs.Registry) {
	s.o.Store(newShardObs(reg))
	s.rep.SetObserver(reg)
}

// SetAdmission re-bounds concurrently admitted mutating RPCs. Zero
// rejects everything — the lever the partial-degradation tests pull to
// saturate one shard deterministically.
func (s *Shard) SetAdmission(n int) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.admit = make(chan struct{}, n)
}

// tryAdmit reserves an admission slot; ok is false when saturated.
func (s *Shard) tryAdmit() (release func(), ok bool) {
	s.admitMu.Lock()
	admit := s.admit
	s.admitMu.Unlock()
	select {
	case admit <- struct{}{}:
		return func() { <-admit }, true
	default:
		if so := s.o.Load(); so != nil {
			so.rejected.Inc()
		}
		return nil, false
	}
}

// Handler returns the shard's routed HTTP handler: the upgrade endpoint
// the router's frame connections start on, and the JSON endpoints.
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/rpc", s.counted(s.handleRPC))
	mux.HandleFunc("GET /shard/proof", s.counted(s.rep.ServeProof))
	mux.HandleFunc("GET /statusz", s.counted(s.handleStatusz))
	mux.HandleFunc("GET /metrics", s.counted(s.handleMetrics))
	mux.HandleFunc("/healthz", s.counted(s.gate.ServeHealthz))
	return mux
}

func (s *Shard) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if so := s.o.Load(); so != nil {
			so.requests.Inc()
		}
		h(w, r)
	}
}

// handleRPC upgrades the connection to the frame protocol and serves
// calls on it until the router closes it, it sits idle too long, or
// the shard closes.
func (s *Shard) handleRPC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), frameProtocol) {
		w.Header().Set("Upgrade", frameProtocol)
		http.Error(w, "upgrade to "+frameProtocol+" required", http.StatusUpgradeRequired)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be upgraded", http.StatusInternalServerError)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "upgrade: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	if !s.trackConn(conn) {
		return
	}
	defer s.untrackConn(conn)
	// http.Server.ReadTimeout left an absolute deadline on the socket;
	// from here the frame loop sets its own.
	conn.SetDeadline(time.Now().Add(shardFrameTimeout))
	if _, err := brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + frameProtocol + "\r\n\r\n"); err != nil {
		return
	}
	if err := brw.Flush(); err != nil {
		return
	}
	s.serveFrames(conn, brw.Reader)
}

// trackConn registers a hijacked connection; false once the shard has
// closed.
func (s *Shard) trackConn(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	return true
}

func (s *Shard) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.connWG.Done()
}

// reply is one call's answer: the frame's status, retry hint and body,
// plus work to run once the frame is on the wire.
type reply struct {
	status     byte
	retryAfter int
	body       []byte
	after      func()
}

func failReply(status byte, msg string) reply {
	if len(msg) > maxErrorBody {
		msg = msg[:maxErrorBody]
	}
	return reply{status: status, body: []byte(msg)}
}

func unavailableReply(msg string, retryAfter int) reply {
	return reply{status: statusUnavailable, retryAfter: retryAfter, body: []byte(msg)}
}

// serveFrames is one connection's call loop: read a request frame,
// dispatch it, write the reply frame — one call at a time.
func (s *Shard) serveFrames(conn net.Conn, br *bufio.Reader) {
	var hdr [replyHeaderLen]byte
	write := func(rp reply) error {
		putReplyHeader(&hdr, rp.status, rp.retryAfter, len(rp.body))
		conn.SetWriteDeadline(time.Now().Add(shardFrameTimeout))
		bufs := net.Buffers{hdr[:], rp.body}
		_, err := bufs.WriteTo(conn)
		return err
	}
	for {
		conn.SetReadDeadline(time.Now().Add(s.idleWait))
		if _, err := br.Peek(1); err != nil {
			return
		}
		// The busy clock starts when the call's first byte arrives: body
		// transfer and decode are shard-side work in a real fleet, and
		// the router subtracts BusySeconds from its own wall-clock when
		// accounting the cycle critical path.
		t0 := time.Now()
		conn.SetReadDeadline(t0.Add(shardFrameTimeout))
		op, body, err := readRequestFrame(br)
		if so := s.o.Load(); so != nil {
			so.requests.Inc()
		}
		if err != nil {
			// An unacceptable header is answered, but its body was not
			// read, so the stream is out of sync either way: close.
			var fe *frameError
			if errors.As(err, &fe) {
				write(failReply(statusBadRequest, fe.Error()))
			}
			return
		}
		rp := s.dispatch(op, body, t0)
		err = write(rp)
		// Whether or not the router was still there to read the reply:
		// a captured snapshot must reach the log, or it holds the
		// snapshot schedule forever.
		if rp.after != nil {
			rp.after()
		}
		if err != nil {
			return
		}
	}
}

func (s *Shard) dispatch(op byte, body []byte, t0 time.Time) reply {
	switch op {
	case opCommit:
		return s.serveCommit(body, t0)
	case opReset:
		return s.serveReset()
	}
	// The two fan-in reads; readRequestFrame admits nothing else. While
	// recovery replays the stream is only partly rebuilt.
	if why, retry := s.gate.Replaying(); why != "" {
		return unavailableReply(why, retry)
	}
	if op == opCandidates {
		return reply{body: encodeCandidates(s.rep.Candidates())}
	}
	return reply{body: encodeEntities(s.rep.Entities())}
}

// serveCommit applies one cycle to the replicated stream. The Seq gate
// keeps replicas exact under router retries: in-order commits apply, a
// replay of the last applied commit answers from cache (idempotency —
// the router may time out after the shard already applied), and
// anything else is a conflict the router treats as desynchronization.
func (s *Shard) serveCommit(body []byte, t0 time.Time) reply {
	if why, retry := s.gate.Unready(); why != "" {
		return unavailableReply(why, retry)
	}
	var req CommitRequest
	if err := req.decode(body); err != nil {
		return failReply(statusBadRequest, err.Error())
	}
	release, ok := s.tryAdmit()
	if !ok {
		return unavailableReply("shard saturated", shardRetryAfterSeconds)
	}
	defer release()
	s.mu.Lock()
	have := s.rep.Seq()
	if req.Seq == have && s.lastResp != nil {
		resp := s.lastResp
		s.mu.Unlock()
		return reply{body: resp.encode()}
	}
	if req.Seq != have+1 {
		s.mu.Unlock()
		return failReply(statusConflict, "commit out of order: have "+strconv.FormatUint(have, 10)+
			", got "+strconv.FormatUint(req.Seq, 10))
	}
	if err := req.validate(); err != nil {
		s.mu.Unlock()
		return failReply(statusBadRequest, err.Error())
	}
	// The shard tags the batch itself, before the cycle: the engine's
	// cycle clock times what the shard owns, and the tagging every shard
	// replicates is timed here.
	tagStart := time.Now()
	tagged := s.rep.Tag(req.Sentences)
	if so := s.o.Load(); so != nil {
		so.tagSeconds.Observe(time.Since(tagStart).Seconds())
	}
	// Ack-after-durable: the replica issues the WAL append under its
	// engine lock and the durability wait happens here on the frame
	// goroutine (a shard has no scheduler to overlap it with), after mu
	// is released — the response still never outruns the shard's disk,
	// but the next cycle's commit can start while this cycle's flush
	// completes. A failure of either has tripped the gate.
	out, err := s.rep.Apply(req.Sentences, tagged)
	if err != nil {
		s.mu.Unlock()
		return failReply(statusInternal, "durability failure: "+err.Error())
	}
	resp := commitResponse(out)
	if out.Snapshot != nil {
		out.Snapshot.LastResp = resp.encode()
	}
	resp.BusySeconds = time.Since(t0).Seconds()
	s.lastResp = resp
	s.mu.Unlock()
	if out.Wait != nil {
		if err := out.Wait(); err != nil {
			return failReply(statusInternal, "durability failure: "+err.Error())
		}
	}
	if so := s.o.Load(); so != nil {
		so.commitSeconds.Observe(resp.BusySeconds)
	}
	rp := reply{body: resp.encode()}
	if snap := out.Snapshot; snap != nil {
		rp.after = func() { s.rep.SubmitSnapshot(snap) }
	}
	return rp
}

// commitResponse is the answer to the cycle the replica just applied —
// live, or the last one of a replay: the shard's owned annotations per
// batch sentence and the replica's sizes.
func commitResponse(out server.Applied) *CommitResponse {
	return &CommitResponse{
		Seq:        out.Seq,
		Entities:   out.Annotations,
		StreamSize: out.StreamSize,
		Candidates: out.Candidates,
	}
}

func (s *Shard) serveReset() reply {
	// A reset would fork the replica away from its WAL; durable shards
	// reset by wiping the data dir and restarting.
	if s.rep.Durable() {
		return failReply(statusConflict, "reset is not supported with -data-dir; wipe the data dir and restart")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.Reset()
	s.lastResp = nil
	return reply{}
}

// Status snapshots the shard's resolved configuration and replica
// state. It answers during replay too, with the seq and stream size
// reached so far: replay takes the engine lock per cycle.
func (s *Shard) Status() ShardStatus {
	st := ShardStatus{
		Index:      s.index,
		Count:      s.count,
		Seq:        s.rep.Seq(),
		SIMD:       nn.ActiveSIMD().String(),
		Settings:   s.settings,
		Durability: s.rep.Durability(),
	}
	s.rep.View(func(g *core.Globalizer) {
		st.StreamSize = g.TweetBase().Len()
		st.Candidates = g.CandidateBase().Len()
		st.Precision = g.Precision().String()
		st.ClusterReplayedShare = g.ClusterReplayedShare()
	})
	return st
}

func (s *Shard) handleStatusz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, s.Status())
}

func (s *Shard) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteMetrics(w, s.registry())
}

// registry returns the attached registry (nil when detached).
func (s *Shard) registry() *obs.Registry {
	if so := s.o.Load(); so != nil {
		return so.reg
	}
	return nil
}
