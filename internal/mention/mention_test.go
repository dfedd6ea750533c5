package mention

import (
	"testing"

	"nerglobalizer/internal/ctrie"
	"nerglobalizer/internal/types"
)

func newTrie(surfaces ...string) *ctrie.Trie {
	tr := ctrie.New()
	for _, s := range surfaces {
		tr.InsertSurface(s)
	}
	return tr
}

func TestExtractRecoversMissedMentions(t *testing.T) {
	tr := newTrie("coronavirus")
	s := &types.Sentence{TweetID: 1, Tokens: []string{"Coronavirus", "spreads", "fast"}}
	// Local NER found nothing in this sentence.
	got := Extract(s, tr, nil)
	if len(got) != 1 {
		t.Fatalf("mentions = %v", got)
	}
	m := got[0]
	if m.Surface != "coronavirus" || m.FromLocalNER || m.Type != types.None {
		t.Fatalf("mention = %+v", m)
	}
	if m.Span.Start != 0 || m.Span.End != 1 {
		t.Fatalf("span = %+v", m.Span)
	}
}

func TestExtractInheritsLocalType(t *testing.T) {
	tr := newTrie("beshear")
	s := &types.Sentence{TweetID: 2, Tokens: []string{"beshear", "speaks"}}
	local := []types.Entity{{Span: types.Span{Start: 0, End: 1}, Type: types.Person}}
	got := Extract(s, tr, local)
	if len(got) != 1 || !got[0].FromLocalNER || got[0].Type != types.Person {
		t.Fatalf("mention = %+v", got)
	}
}

func TestExtractCorrectsPartialExtraction(t *testing.T) {
	// Local NER tagged only "Andy" but the full form is registered:
	// the scan returns the complete mention, not flagged as local
	// (spans differ).
	tr := newTrie("andy beshear")
	s := &types.Sentence{TweetID: 3, Tokens: []string{"Andy", "Beshear", "announced"}}
	local := []types.Entity{{Span: types.Span{Start: 0, End: 1}, Type: types.Person}}
	got := Extract(s, tr, local)
	if len(got) != 1 {
		t.Fatalf("mentions = %v", got)
	}
	if got[0].Span.End != 2 || got[0].FromLocalNER {
		t.Fatalf("partial extraction not corrected: %+v", got[0])
	}
}

func TestExtractBatchAndGroupBySurface(t *testing.T) {
	tr := newTrie("italy", "us")
	sents := []*types.Sentence{
		{TweetID: 1, Tokens: []string{"Italy", "locks", "down"}},
		{TweetID: 2, Tokens: []string{"us", "cases", "rise", "in", "Italy"}},
	}
	ms := ExtractBatchPool(sents, tr, map[types.SentenceKey][]types.Entity{}, nil)
	if len(ms) != 3 {
		t.Fatalf("got %d mentions", len(ms))
	}
	groups := GroupBySurface(ms)
	if len(groups["italy"]) != 2 || len(groups["us"]) != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestExtractNoMatches(t *testing.T) {
	tr := newTrie("zika")
	s := &types.Sentence{Tokens: []string{"nothing", "here"}}
	if got := Extract(s, tr, nil); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}
