// Package fleet implements sharded scale-out of the NER Globalizer
// serving path: a stateless front router that owns tokenization and
// deterministic surface-form routing, fanning execution cycles out to
// K engine shards and merging their partial annotations back into
// request order.
//
// The decomposition follows the engine-level ownership contract
// (core.SetShardOwnership): every shard replicates the full stream —
// trie scans resolve overlaps against the whole trie, so mention
// extraction must see every sentence — but runs the expensive
// per-surface Global NER steps (embedding, candidate clustering,
// classification) only for the surface forms it owns under
// ctrie.OwnerShard. Because those steps are pure functions of each
// surface's own mention pool, the union of the shards' outputs is
// byte-identical to a single-process run at any shard count.
//
// Each cycle is one commit RPC per shard carrying the batch's
// sentences; the shard tags them itself before applying the cycle.
// Local NER is a pure function of a sentence (the localner batching
// contract), so every shard of a homogeneous fleet computes the same tag
// results the single process does, and nothing but sentences is shipped.
//
// The wire is frames on persistent connections. The router opens a few
// connections per shard with GET /shard/rpc + Upgrade on the shard's
// ordinary listener; the shard hijacks the socket and from then on both
// ends exchange, one call at a time per connection,
//
//	request  [op u8][len u32][body]
//	reply    [status u8][retry-after u16][len u32][body]
//
// little-endian, bodies in the fixed-width encodings of codec.go with
// no envelope. The status byte carries what the HTTP status carried
// before frames (200 / 503 + Retry-After / 409 / 400 / 500); the body of
// a non-OK reply is the error text. The JSON endpoints people and
// auditors read (/statusz, /metrics, /healthz, /shard/proof) stay plain
// HTTP on the same listener.
package fleet

import (
	"encoding/binary"
	"fmt"
	"io"

	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/types"
)

// shardMaxBodyBytes caps frame bodies in both directions. The largest
// body is the /entities fan-in reply, which lists every annotated
// sentence of the stream, so the bound is far above the router's public
// 1 MB JSON cap.
const shardMaxBodyBytes = 64 << 20

// CommitRequest applies one execution cycle to a shard's replicated
// stream: the full batch, in batch order; the shard tags it itself.
// Commits must apply in Seq order (1, 2, 3, ...) — the shard rejects
// gaps, which is how a router-side retry after a partial failure stays
// exact instead of silently desynchronizing the replica.
type CommitRequest struct {
	Seq       uint64
	Sentences []durable.CycleSentence
}

// validate checks a decoded commit for what the engine's cycle indexes
// without looking, so that a frame that is well-formed but inconsistent
// is refused instead of panicking the frame goroutine under the shard's
// locks: no sentence key twice (a router numbers every sentence once; a
// repeat would replace a record of the very batch that adds it).
func (q *CommitRequest) validate() error {
	seen := make(map[types.SentenceKey]bool, len(q.Sentences))
	for _, cs := range q.Sentences {
		key := types.SentenceKey{TweetID: cs.TweetID, SentID: cs.SentID}
		if seen[key] {
			return fmt.Errorf("fleet: commit %d carries sentence %d/%d twice", q.Seq, key.TweetID, key.SentID)
		}
		seen[key] = true
	}
	return nil
}

// CommitResponse returns the cycle's owned annotations for the batch
// (index-aligned with the request's Sentences), plus replica state for
// cross-checking and response rendering. Each sentence's entities carry
// the canonical (trie) surface and come surface-grouped in ascending
// order of it — the order the engine's FinalMentions contract
// guarantees, which makes the router's cross-shard merge a linear group
// interleave. They are the durable annotation type: the shard logs and
// hashes exactly what it ships.
type CommitResponse struct {
	Seq         uint64
	Entities    []durable.SentenceAnnotation
	StreamSize  int
	Candidates  int
	BusySeconds float64
}

// ShardStatus is a shard's resolved configuration and health, surfaced
// through the router's /statusz so an operator can verify the fleet is
// homogeneous (mixed precision or SIMD tiers across shards would tag the
// same sentence differently, and the shards would disagree).
type ShardStatus struct {
	Index      int               `json:"index"`
	Count      int               `json:"count"`
	Seq        uint64            `json:"seq"`
	StreamSize int               `json:"stream_size"`
	Candidates int               `json:"candidates"`
	Precision  string            `json:"precision"`
	SIMD       string            `json:"simd"`
	Settings   map[string]string `json:"settings"`
	// ClusterReplayedShare is the fraction of the shard engine's merge
	// steps kept from recordings (see server.StatuszResponse).
	ClusterReplayedShare float64 `json:"cluster_merges_replayed_share"`
	// Durability summarizes the shard's commit path; nil without
	// -data-dir.
	Durability *durable.Status `json:"durability,omitempty"`
}

// frameProtocol is the Upgrade token of the shard RPC connection.
const frameProtocol = "ner-frames/1"

// Frame ops: the four binary shard RPCs. Op 1 carried the tag RPC of
// builds that shipped tag results; it stays unassigned, so a frame from
// such a build is an unknown op.
const (
	opCommit byte = 2 + iota
	opReset
	opCandidates
	opEntities
	opEnd // first invalid op
)

// Reply statuses, with the HTTP status each one stands for.
const (
	statusOK          byte = iota // 200
	statusUnavailable             // 503, retry-after set
	statusConflict                // 409
	statusBadRequest              // 400
	statusInternal                // 500
	statusEnd                     // first invalid status
)

// httpStatus names a reply status by the HTTP code it stands for, for
// error text.
func httpStatus(status byte) int {
	switch status {
	case statusOK:
		return 200
	case statusUnavailable:
		return 503
	case statusConflict:
		return 409
	case statusBadRequest:
		return 400
	}
	return 500
}

const (
	requestHeaderLen = 5 // op + body length
	replyHeaderLen   = 7 // status + retry-after + body length
	// maxErrorBody bounds the error text of a non-OK reply.
	maxErrorBody = 512
)

// frameError is a well-framed but unacceptable frame: unknown op or
// status, or a body length past shardMaxBodyBytes. The stream is still
// in sync up to the header, so the shard can answer it before closing;
// an I/O error (truncation, timeout) is returned bare instead.
type frameError struct{ msg string }

func (e *frameError) Error() string { return "fleet: " + e.msg }

// readBody reads an n-byte frame body, n already checked against the
// cap. Large bodies grow with the bytes that actually arrive, so a
// header that claims the cap and then stalls pins a chunk, not 64 MB.
func readBody(r io.Reader, n int) ([]byte, error) {
	const eager = 1 << 20
	if n <= eager {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(body) < n {
		err = io.ErrUnexpectedEOF
	}
	return body, err
}

// putRequestHeader fills a request frame header.
func putRequestHeader(hdr *[requestHeaderLen]byte, op byte, bodyLen int) {
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(bodyLen))
}

// readRequestFrame reads one request frame.
func readRequestFrame(r io.Reader) (op byte, body []byte, err error) {
	var hdr [requestHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	op = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	if op < opCommit || op >= opEnd {
		return 0, nil, &frameError{fmt.Sprintf("unknown frame op %d", op)}
	}
	if n > shardMaxBodyBytes {
		return 0, nil, &frameError{fmt.Sprintf("frame body of %d bytes exceeds the %d-byte cap", n, shardMaxBodyBytes)}
	}
	body, err = readBody(r, int(n))
	return op, body, err
}

// putReplyHeader fills a reply frame header.
func putReplyHeader(hdr *[replyHeaderLen]byte, status byte, retryAfter, bodyLen int) {
	hdr[0] = status
	binary.LittleEndian.PutUint16(hdr[1:], uint16(retryAfter))
	binary.LittleEndian.PutUint32(hdr[3:], uint32(bodyLen))
}

// readReplyFrame reads one reply frame.
func readReplyFrame(r io.Reader) (status byte, retryAfter int, body []byte, err error) {
	var hdr [replyHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	status = hdr[0]
	retryAfter = int(binary.LittleEndian.Uint16(hdr[1:]))
	n := binary.LittleEndian.Uint32(hdr[3:])
	if status >= statusEnd {
		return 0, 0, nil, &frameError{fmt.Sprintf("unknown reply status %d", status)}
	}
	if n > shardMaxBodyBytes {
		return 0, 0, nil, &frameError{fmt.Sprintf("reply body of %d bytes exceeds the %d-byte cap", n, shardMaxBodyBytes)}
	}
	body, err = readBody(r, int(n))
	return status, retryAfter, body, err
}
