// Package fleet implements sharded scale-out of the NER Globalizer
// serving path: a stateless front router that owns tokenization and
// deterministic surface-form routing, fanning execution cycles out to
// K engine shards over HTTP and merging their partial annotations back
// into request order.
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
// Tagging is partitioned too: per-sentence tag results are
// byte-identical at any batch composition (the localner batching
// contract), so the router has shard i tag the i-th contiguous slice
// of each cycle's batch and ships the results to every shard, which
// replays them with ProcessTagged. Each cycle therefore costs one
// tag RPC and one commit RPC per shard, gob-framed around a fixed-width
// binary payload (see codec.go) so per-RPC serialization stays cheap.
package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"

	"nerglobalizer/internal/core"
	"nerglobalizer/internal/durable"
	"nerglobalizer/internal/localner"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// shardMaxBodyBytes caps shard RPC bodies. Commit payloads carry the
// batch's token embeddings (float64 matrices), so the bound is far
// above the router's public 1 MB JSON cap.
const shardMaxBodyBytes = 64 << 20

// WireSentence is one tweet sentence on the wire: identity plus the
// tokenizer's output. Gold annotations never cross the wire — serving
// traffic has none.
type WireSentence struct {
	TweetID int
	SentID  int
	Tokens  []string
}

// Sentence materializes the wire form.
func (w WireSentence) Sentence() *types.Sentence {
	return &types.Sentence{TweetID: w.TweetID, SentID: w.SentID, Tokens: w.Tokens}
}

// ToWireSentences converts a batch for shipping.
func ToWireSentences(batch []*types.Sentence) []WireSentence {
	out := make([]WireSentence, len(batch))
	for i, s := range batch {
		out[i] = WireSentence{TweetID: s.TweetID, SentID: s.SentID, Tokens: s.Tokens}
	}
	return out
}

// ToSentences materializes a shipped batch.
func ToSentences(ws []WireSentence) []*types.Sentence {
	out := make([]*types.Sentence, len(ws))
	for i, w := range ws {
		out[i] = w.Sentence()
	}
	return out
}

// WireTag is one sentence's Local NER result on the wire: exactly the
// fields the stream-state replay (applyTagged) consumes. Tokens are
// the tagger's view — possibly truncated to the encoder's MaxLen, and
// the basis of entity spans — so they ship verbatim rather than being
// re-derived from the sentence. Embeddings ship as exact float64: the
// global phase reads them bit-for-bit, and identity across the fleet
// depends on it.
type WireTag struct {
	Tokens   []string
	Entities []types.Entity
	Emb      *nn.Matrix
}

// ToWireTags converts tag results for shipping.
func ToWireTags(results []*localner.Result) []WireTag {
	out := make([]WireTag, len(results))
	for i, r := range results {
		out[i] = WireTag{Tokens: r.Tokens, Entities: r.Entities, Emb: r.Embeddings}
	}
	return out
}

// ToResults materializes shipped tag results for ProcessTagged. BIO
// labels intentionally stay off the wire: the replay path never reads
// them.
func ToResults(tags []WireTag) []*localner.Result {
	out := make([]*localner.Result, len(tags))
	for i, t := range tags {
		out[i] = &localner.Result{Tokens: t.Tokens, Entities: t.Entities, Embeddings: t.Emb}
	}
	return out
}

// TagRequest asks a shard to tag one contiguous slice of a cycle's
// batch. Tagging is pure, so Seq is advisory (observability only).
type TagRequest struct {
	Seq       uint64
	Sentences []WireSentence
}

// TagResponse returns the slice's tag results, index-aligned.
// BusySeconds is the shard's own wall-clock for serving the RPC
// (request decode through inference); the router uses it to separate
// shard work from router work when it accounts a cycle's distributed
// critical path.
type TagResponse struct {
	Seq         uint64
	Results     []WireTag
	BusySeconds float64
}

// CommitRequest applies one execution cycle to a shard's replicated
// stream: the full batch with its full tag results, in batch order.
// Commits must apply in Seq order (1, 2, 3, ...) — the shard rejects
// gaps, which is how a router-side retry after a partial failure stays
// exact instead of silently desynchronizing the replica.
type CommitRequest struct {
	Seq       uint64
	Sentences []WireSentence
	Tagged    []WireTag
	Mode      core.Mode
}

// WireEntity is one owned entity in a commit response, carrying the
// canonical surface form the router merges on.
type WireEntity struct {
	Start   int
	End     int
	Type    types.EntityType
	Surface string
}

// SentenceEntities is one batch sentence's owned annotations,
// surface-grouped in ascending canonical-surface order — the order the
// engine's FinalMentions contract guarantees, which makes the router's
// cross-shard merge a linear group interleave.
type SentenceEntities struct {
	TweetID  int
	SentID   int
	Entities []WireEntity
}

// CommitResponse returns the cycle's owned annotations for the batch
// (index-aligned with the request's Sentences), plus replica state for
// cross-checking and response rendering.
type CommitResponse struct {
	Seq         uint64
	Entities    []SentenceEntities
	StreamSize  int
	Candidates  int
	BusySeconds float64
}

// ShardStatus is a shard's resolved configuration and health, surfaced
// through the router's /statusz so an operator can verify the fleet is
// homogeneous (mixed precision or SIMD tiers across shards would break
// bit-identical tag shipping).
type ShardStatus struct {
	Index      int               `json:"index"`
	Count      int               `json:"count"`
	Seq        uint64            `json:"seq"`
	StreamSize int               `json:"stream_size"`
	Candidates int               `json:"candidates"`
	Precision  string            `json:"precision"`
	SIMD       string            `json:"simd"`
	I8Kernel   string            `json:"i8_kernel"`
	Settings   map[string]string `json:"settings"`
	// ClusterReplayedShare is the fraction of the shard engine's merge
	// steps replayed from recordings (see server.StatuszResponse).
	ClusterReplayedShare float64 `json:"cluster_merges_replayed_share"`
	// Durability summarizes the shard's commit path; nil without
	// -data-dir.
	Durability *durable.Status `json:"durability,omitempty"`
}

// encodeGob writes v as a gob stream.
func encodeGob(v any) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("fleet: encode: %w", err)
	}
	return &buf, nil
}

// decodeGob reads one gob value from r.
func decodeGob(r io.Reader, v any) error {
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("fleet: decode: %w", err)
	}
	return nil
}

// readGobRequest bounds and decodes a shard RPC body.
func readGobRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, shardMaxBodyBytes)
	if err := decodeGob(r.Body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeGob answers a shard RPC with a gob body.
func writeGob(w http.ResponseWriter, v any) {
	buf, err := encodeGob(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf.Bytes())
}
