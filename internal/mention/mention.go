// Package mention implements the mention-extraction step of Global NER
// (Section V-A of the paper): given the candidate surface forms seeded
// in the CTrie by Local NER, it re-scans every sentence to discover all
// mentions of those forms — the ones Local NER already tagged, the
// ones it missed (false negatives), and completions of partial
// extractions.
package mention

import (
	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/parallel"
	"nerglobalizer/internal/types"
)

// Extract scans one sentence against the trie and returns all surface
// form mentions found. localEntities are the entities Local NER tagged
// in this sentence; a scanned mention that exactly matches one of them
// inherits its locally predicted type and is flagged FromLocalNER.
// Everything else gets type None until the Entity Classifier rules.
func Extract(sent *types.Sentence, trie *ctrie.Trie, localEntities []types.Entity) []types.Mention {
	matches := trie.Scan(sent.Tokens)
	if len(matches) == 0 {
		return nil
	}
	out := make([]types.Mention, 0, len(matches))
	for _, m := range matches {
		men := types.Mention{
			Key:     sent.Key(),
			Span:    types.Span{Start: m.Start, End: m.End},
			Surface: m.Surface,
		}
		for _, e := range localEntities {
			if e.Start == m.Start && e.End == m.End {
				men.Type = e.Type
				men.FromLocalNER = true
				break
			}
		}
		out = append(out, men)
	}
	return out
}

// ExtractBatchPool runs Extract over a batch of sentences, the
// per-sentence trie scans sharded over pool. localBySent maps each
// sentence key to its Local NER entities (keys may be absent).
// Trie.Scan is read-only, so concurrent scans over one frozen trie are
// safe; per-sentence results are collected at the sentence's own index
// and concatenated in batch order, making the output identical to the
// serial loop at any worker count. A nil pool runs serially.
func ExtractBatchPool(sents []*types.Sentence, trie *ctrie.Trie, localBySent map[types.SentenceKey][]types.Entity, pool *parallel.Pool) []types.Mention {
	perSent := parallel.MapOrdered(pool, len(sents), func(i int) []types.Mention {
		s := sents[i]
		return Extract(s, trie, localBySent[s.Key()])
	})
	var out []types.Mention
	for _, ms := range perSent {
		out = append(out, ms...)
	}
	return out
}

// GroupBySurface indexes mentions by their canonical surface form,
// preserving order within each group.
func GroupBySurface(mentions []types.Mention) map[string][]types.Mention {
	out := make(map[string][]types.Mention)
	for _, m := range mentions {
		out[m.Surface] = append(out[m.Surface], m)
	}
	return out
}
