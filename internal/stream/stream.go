// Package stream provides the streaming bookkeeping of NER Globalizer:
// batch iteration over incoming tweets, the TweetBase of per-sentence
// records produced by Local NER (and updated after Global NER), and
// the CandidateBase of entity candidates discovered during candidate
// cluster generation.
package stream

import (
	"sort"

	"nerglobalizer/internal/types"
)

// Record is the TweetBase entry for one tweet sentence: the sentence
// itself, what Local NER said about it, and — after Global NER — the
// final verified mentions. Its entity-aware token embeddings live only
// in the cycle that tagged it; a later cycle re-embeds the sentence.
type Record struct {
	Sentence      *types.Sentence
	LocalEntities []types.Entity
	FinalMentions []types.Mention
}

// TweetBase holds the stream's records in arrival order. The stream is
// append-only, so a record's position never changes — the engine's
// per-sentence state is a table indexed by it — and one map from
// sentence key to position serves the lookups by key.
type TweetBase struct {
	records []*Record
	pos     map[types.SentenceKey]int
}

// NewTweetBase returns an empty TweetBase.
func NewTweetBase() *TweetBase {
	return &TweetBase{pos: make(map[types.SentenceKey]int)}
}

// Add appends the record, or replaces the one its sentence key already
// holds, which keeps its position.
func (tb *TweetBase) Add(r *Record) {
	key := r.Sentence.Key()
	if i, exists := tb.pos[key]; exists {
		tb.records[i] = r
		return
	}
	tb.pos[key] = len(tb.records)
	tb.records = append(tb.records, r)
}

// Get returns the record for key, or nil.
func (tb *TweetBase) Get(key types.SentenceKey) *Record {
	if i, ok := tb.pos[key]; ok {
		return tb.records[i]
	}
	return nil
}

// IndexOf returns the stream position of key, or -1 when absent.
func (tb *TweetBase) IndexOf(key types.SentenceKey) int {
	if i, ok := tb.pos[key]; ok {
		return i
	}
	return -1
}

// At returns the record at stream position i, 0 <= i < Len().
func (tb *TweetBase) At(i int) *Record { return tb.records[i] }

// Len returns the number of records.
func (tb *TweetBase) Len() int { return len(tb.records) }

// Keys returns the record keys in stream order.
func (tb *TweetBase) Keys() []types.SentenceKey {
	out := make([]types.SentenceKey, len(tb.records))
	for i, r := range tb.records {
		out[i] = r.Sentence.Key()
	}
	return out
}

// Each calls fn for every record in stream order.
func (tb *TweetBase) Each(fn func(*Record)) {
	for _, r := range tb.records {
		fn(r)
	}
}

// LocalEntityMap returns Local NER's entities keyed by sentence — the
// shape the metrics package and mention extraction consume.
func (tb *TweetBase) LocalEntityMap() map[types.SentenceKey][]types.Entity {
	out := make(map[types.SentenceKey][]types.Entity, len(tb.records))
	for _, r := range tb.records {
		out[r.Sentence.Key()] = r.LocalEntities
	}
	return out
}

// FinalEntityMap converts the post-Global-NER mentions of every record
// into typed entities keyed by sentence.
func (tb *TweetBase) FinalEntityMap() map[types.SentenceKey][]types.Entity {
	out := make(map[types.SentenceKey][]types.Entity, len(tb.records))
	for _, r := range tb.records {
		var ents []types.Entity
		for _, m := range r.FinalMentions {
			if m.Type == types.None {
				continue
			}
			ents = append(ents, types.Entity{Span: m.Span, Type: m.Type})
		}
		out[r.Sentence.Key()] = ents
	}
	return out
}

// Batches splits sentences into consecutive batches of at most size,
// discretizing the stream's evolution the way the paper's execution
// cycles do.
func Batches(sents []*types.Sentence, size int) [][]*types.Sentence {
	if size <= 0 {
		size = len(sents)
	}
	var out [][]*types.Sentence
	for start := 0; start < len(sents); start += size {
		end := start + size
		if end > len(sents) {
			end = len(sents)
		}
		out = append(out, sents[start:end])
	}
	return out
}

// Candidate is a CandidateBase entry: one candidate cluster of a
// surface form, its mentions, their local embeddings, and the type
// assigned by the Entity Classifier (None until classified, or for
// rejected candidates). Their global embedding (eqs. 6–8) exists only
// inside classification, pooled per ensemble member.
type Candidate struct {
	Surface   string
	ClusterID int
	Mentions  []types.Mention
	Embs      [][]float64
	Type      types.EntityType
	// Confidence is the classifier's probability for the assigned type.
	Confidence float64
}

// MentionCount returns the number of mentions aggregated so far.
func (c *Candidate) MentionCount() int { return len(c.Mentions) }

// CandidateBase maintains an entry for every candidate discovered in a
// stream, keyed by surface form (several candidates may share one —
// that is the whole point of candidate clusters).
type CandidateBase struct {
	bySurface map[string][]*Candidate
	// n is the candidate count over every surface, kept by SetClusters
	// and Delete so Len does not walk the map.
	n int
}

// NewCandidateBase returns an empty CandidateBase.
func NewCandidateBase() *CandidateBase {
	return &CandidateBase{bySurface: make(map[string][]*Candidate)}
}

// ForSurface returns the candidate clusters of a surface form.
func (cb *CandidateBase) ForSurface(surface string) []*Candidate {
	return cb.bySurface[surface]
}

// SetClusters replaces the candidate clusters of a surface form.
func (cb *CandidateBase) SetClusters(surface string, cands []*Candidate) {
	cb.n += len(cands) - len(cb.bySurface[surface])
	cb.bySurface[surface] = cands
}

// Delete removes every candidate cluster of a surface form. The
// incremental candidate bookkeeping uses it when a surface's mention
// pool empties (a longer late surface shadowing every match) or when
// its support drops below the local-evidence floor.
func (cb *CandidateBase) Delete(surface string) {
	cb.n -= len(cb.bySurface[surface])
	delete(cb.bySurface, surface)
}

// Surfaces returns all registered surface forms, sorted for
// determinism.
func (cb *CandidateBase) Surfaces() []string {
	out := make([]string, 0, len(cb.bySurface))
	for s := range cb.bySurface {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// All returns every candidate across all surface forms in sorted
// surface order.
func (cb *CandidateBase) All() []*Candidate {
	var out []*Candidate
	for _, s := range cb.Surfaces() {
		out = append(out, cb.bySurface[s]...)
	}
	return out
}

// Len returns the total number of candidates.
func (cb *CandidateBase) Len() int { return cb.n }
