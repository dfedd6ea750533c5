package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/obs"
	"nerglobalizer/internal/server"
)

// defaultRPCTimeout bounds one shard RPC end to end. Commit RPCs do
// real inference work, so the bound is generous; the router's
// liveness comes from propagating failures, not from tight deadlines.
const defaultRPCTimeout = 30 * time.Second

// ShardUnavailableError reports a shard answering 503 (admission
// saturated). RetryAfter carries the shard's Retry-After hint in
// seconds so the router can pass it through to its own callers.
type ShardUnavailableError struct {
	Shard      int
	RetryAfter int
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("fleet: shard %d unavailable (retry after %ds)", e.Shard, e.RetryAfter)
}

// ShardConflictError reports a commit rejected by the shard's sequence
// gate — the replica and router disagree about stream history, which is
// not retryable.
type ShardConflictError struct {
	Shard  int
	Detail string
}

func (e *ShardConflictError) Error() string {
	return fmt.Sprintf("fleet: shard %d commit conflict: %s", e.Shard, e.Detail)
}

// clientObs is the client's share of the router's registry: per-shard
// byte counters, fleet-wide dial and redial counters. Without a
// registry the counters are nil, which records nothing.
type clientObs struct {
	sent, received  *obs.Counter
	dialed, redials *obs.Counter
}

// ShardClient is the router's handle to one shard: a bounded pool of
// persistent frame connections for the five binary RPCs, plus an HTTP
// client for the JSON endpoints (/statusz, /shard/proof).
//
// Three rules keep the frame connections safe. A call that fails or
// times out closes its connection — a reply that arrives late must
// never be read as the next call's answer. A failure before the first
// reply byte on a connection that has served a call before (the socket
// may simply be stale: the shard restarted, or closed it idle) redials
// once and resends; every op tolerates the resend (tag and the fan-ins
// are pure, reset is idempotent, commit is seq-gated and a duplicate is
// answered from the shard's cached last response). And one call owns a
// connection from its first request byte to its last reply byte.
type ShardClient struct {
	index   int
	baseURL string
	addr    string // host:port the frame connections dial
	addrErr error  // baseURL did not parse; surfaced by the first call
	hc      *http.Client
	timeout atomic.Int64 // time.Duration

	// slots bounds the calls in flight, and with them the open
	// connections: a connection exists only under a slot or in idle.
	slots  chan struct{}
	mu     sync.Mutex
	idle   []*frameConn // most recently used last
	closed bool

	open                 atomic.Int64
	commits, commitBytes atomic.Int64
	o                    atomic.Pointer[clientObs] // never nil
}

// frameConn is one upgraded connection. used marks a connection that
// has completed a call — the only kind whose failure may mean "stale".
type frameConn struct {
	nc   net.Conn
	br   *bufio.Reader
	used bool
}

// maxConns bounds the frame connections kept to one shard — the fleet's
// only concurrency toward a shard is the router's own fan-out, so a
// small bound suffices and keeps a misbehaving shard from accumulating
// sockets.
const maxConns = 4

// NewShardClient builds a client for the shard at baseURL (scheme and
// host, no trailing slash). Connections are dialed on demand.
func NewShardClient(index int, baseURL string) *ShardClient {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &ShardClient{
		index:   index,
		baseURL: baseURL,
		hc:      &http.Client{Transport: tr},
		slots:   make(chan struct{}, maxConns),
	}
	c.timeout.Store(int64(defaultRPCTimeout))
	c.o.Store(&clientObs{})
	u, err := url.Parse(baseURL)
	switch {
	case err != nil:
		c.addrErr = err
	case u.Scheme != "http" || u.Host == "":
		c.addrErr = fmt.Errorf("base URL %q is not http://host:port", baseURL)
	case u.Port() == "":
		c.addr = net.JoinHostPort(u.Hostname(), "80")
	default:
		c.addr = u.Host
	}
	return c
}

// SetTimeout overrides the per-RPC deadline (tests use short ones).
func (c *ShardClient) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

func (c *ShardClient) rpcTimeout() time.Duration { return time.Duration(c.timeout.Load()) }

// BaseURL returns the shard's base URL.
func (c *ShardClient) BaseURL() string { return c.baseURL }

// dial opens one frame connection: TCP, then GET /shard/rpc with an
// Upgrade the shard answers 101 before hijacking the socket.
func (c *ShardClient) dial(deadline time.Time) (*frameConn, error) {
	if c.addrErr != nil {
		return nil, c.addrErr
	}
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	fc := &frameConn{nc: nc, br: bufio.NewReader(nc)}
	nc.SetDeadline(deadline)
	_, err = fmt.Fprintf(nc, "GET /shard/rpc HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", c.addr, frameProtocol)
	if err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(fc.br, nil); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != frameProtocol {
				err = fmt.Errorf("upgrade to %s refused: %s", frameProtocol, resp.Status)
			}
		}
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.open.Add(1)
	c.o.Load().dialed.Inc()
	return fc, nil
}

func (c *ShardClient) closeConn(fc *frameConn) {
	fc.nc.Close()
	c.open.Add(-1)
}

// roundTrip runs one call on fc. started reports whether any reply byte
// arrived: a failure before that, on a used connection, may be a stale
// socket rather than a failed call.
func (c *ShardClient) roundTrip(fc *frameConn, op byte, body []byte, deadline time.Time) (status byte, retryAfter int, reply []byte, started bool, err error) {
	fc.nc.SetDeadline(deadline)
	var hdr [requestHeaderLen]byte
	putRequestHeader(&hdr, op, len(body))
	// One write per frame; the body is referenced, not copied, so a
	// commit encoded once is shared across the fan-out.
	bufs := net.Buffers{hdr[:], body}
	n, err := bufs.WriteTo(fc.nc)
	c.o.Load().sent.Add(n)
	if err != nil {
		return 0, 0, nil, false, err
	}
	if _, err = fc.br.Peek(1); err != nil {
		return 0, 0, nil, false, err
	}
	status, retryAfter, reply, err = readReplyFrame(fc.br)
	if err == nil {
		c.o.Load().received.Add(int64(replyHeaderLen + len(reply)))
	}
	return status, retryAfter, reply, true, err
}

// call runs one binary RPC and maps the reply status to the typed
// errors the router's degradation logic keys on.
func (c *ShardClient) call(op byte, what string, body []byte) ([]byte, error) {
	fail := func(err error) error { return fmt.Errorf("fleet: shard %d %s: %w", c.index, what, err) }
	if len(body) > shardMaxBodyBytes {
		return nil, fail(fmt.Errorf("request body of %d bytes exceeds the %d-byte cap", len(body), shardMaxBodyBytes))
	}
	timeout := c.rpcTimeout()
	deadline := time.Now().Add(timeout)
	select {
	case c.slots <- struct{}{}:
	default:
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case c.slots <- struct{}{}:
		case <-t.C:
			return nil, fail(errors.New("timed out waiting for a connection"))
		}
	}
	defer func() { <-c.slots }()

	c.mu.Lock()
	var fc *frameConn
	if n := len(c.idle); n > 0 {
		fc, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	var err error
	if fc == nil {
		if fc, err = c.dial(deadline); err != nil {
			return nil, fail(err)
		}
	}
	status, retryAfter, reply, started, err := c.roundTrip(fc, op, body, deadline)
	if err != nil && fc.used && !started && !isTimeout(err) {
		c.closeConn(fc)
		c.o.Load().redials.Inc()
		if fc, err = c.dial(deadline); err != nil {
			return nil, fail(err)
		}
		status, retryAfter, reply, _, err = c.roundTrip(fc, op, body, deadline)
	}
	if err != nil {
		c.closeConn(fc)
		return nil, fail(err)
	}
	fc.used = true
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.idle = append(c.idle, fc)
	}
	c.mu.Unlock()
	if closed {
		c.closeConn(fc)
	}

	switch status {
	case statusOK:
		return reply, nil
	case statusUnavailable:
		if retryAfter <= 0 {
			retryAfter = shardRetryAfterSeconds
		}
		return nil, &ShardUnavailableError{Shard: c.index, RetryAfter: retryAfter}
	case statusConflict:
		return nil, &ShardConflictError{Shard: c.index, Detail: string(bytes.TrimSpace(reply))}
	default:
		return nil, fail(fmt.Errorf("status %d: %s", httpStatus(status), bytes.TrimSpace(reply)))
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Tag runs Local NER for one batch slice on the shard.
func (c *ShardClient) Tag(req *TagRequest) (*TagResponse, error) {
	body, err := req.encode()
	if err != nil {
		return nil, err
	}
	reply, err := c.call(opTag, "tag", body)
	if err != nil {
		return nil, err
	}
	var out TagResponse
	if err := out.decode(reply); err != nil {
		return nil, err
	}
	return &out, nil
}

// Commit applies one execution cycle to the shard's replica.
func (c *ShardClient) Commit(req *CommitRequest) (*CommitResponse, error) {
	body, err := req.encode()
	if err != nil {
		return nil, err
	}
	return c.CommitEncoded(body)
}

// CommitEncoded is Commit with a pre-encoded request body, shared by
// reference across the fan-out — serialization cost on the router stays
// constant as the fleet grows.
func (c *ShardClient) CommitEncoded(body []byte) (*CommitResponse, error) {
	c.commits.Add(1)
	c.commitBytes.Add(int64(requestHeaderLen + len(body)))
	reply, err := c.call(opCommit, "commit", body)
	if err != nil {
		return nil, err
	}
	var out CommitResponse
	if err := out.decode(reply); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reset clears the shard's stream state.
func (c *ShardClient) Reset() error {
	_, err := c.call(opReset, "reset", nil)
	return err
}

// Candidates fetches the shard's owned candidate clusters.
func (c *ShardClient) Candidates() ([]server.Candidate, error) {
	reply, err := c.call(opCandidates, "candidates", nil)
	if err != nil {
		return nil, err
	}
	return decodeCandidates(reply)
}

// Entities fetches the shard's owned stream annotations.
func (c *ShardClient) Entities() ([]durable.SentenceAnnotation, error) {
	reply, err := c.call(opEntities, "entities", nil)
	if err != nil {
		return nil, err
	}
	return decodeEntities(reply)
}

// transportStatus is the client's view of its frame connections, for
// the router's /statusz.
func (c *ShardClient) transportStatus() (openConns int, bytesPerCommit float64) {
	if n := c.commits.Load(); n > 0 {
		bytesPerCommit = float64(c.commitBytes.Load()) / float64(n)
	}
	return int(c.open.Load()), bytesPerCommit
}

// get fetches one of the shard's plain-HTTP endpoints (the JSON ones
// people and auditors also read), bounded by the RPC timeout. A 200
// body is decoded into v (nil: ignored); any other status is returned
// with the start of its body as msg.
func (c *ShardClient) get(path string, v any) (status int, msg string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.rpcTimeout())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return 0, "", fmt.Errorf("fleet: shard %d: %w", c.index, err)
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, "", fmt.Errorf("fleet: shard %d %s: %w", c.index, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return resp.StatusCode, string(bytes.TrimSpace(b)), nil
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return 0, "", fmt.Errorf("fleet: shard %d %s: %w", c.index, path, err)
		}
	}
	return http.StatusOK, "", nil
}

// Ready reports (as nil) that the shard's /healthz answers 200: its
// recovery has finished and its durability layer has not failed.
func (c *ShardClient) Ready() error {
	status, msg, err := c.get("/healthz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fleet: shard %d not ready: %s", c.index, msg)
	}
	return err
}

// Status fetches the shard's /statusz. A shard still replaying its WAL
// answers too, with the seq it has reached so far.
func (c *ShardClient) Status() (ShardStatus, error) {
	var st ShardStatus
	status, msg, err := c.get("/statusz", &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fleet: shard %d statusz: status %d: %s", c.index, status, msg)
	}
	return st, err
}

// Proof fetches the shard's inclusion-proof bundle for one tweet
// (JSON — proofs are the auditor-facing format). The second return is
// false when the shard does not know the tweet.
func (c *ShardClient) Proof(tweet int) (*durable.ProofBundle, bool, error) {
	var b durable.ProofBundle
	status, msg, err := c.get(fmt.Sprintf("/shard/proof?tweet=%d", tweet), &b)
	switch {
	case err != nil:
		return nil, false, err
	case status == http.StatusNotFound:
		return nil, false, nil
	case status != http.StatusOK:
		return nil, false, fmt.Errorf("fleet: shard %d proof: status %d: %s", c.index, status, msg)
	}
	return &b, true, nil
}

// Close closes the idle frame connections and the HTTP client's. Calls
// still in flight close their own connections as they finish.
func (c *ShardClient) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, fc := range idle {
		c.closeConn(fc)
	}
	c.hc.CloseIdleConnections()
}
