package stream

import (
	"math/rand"
	"testing"

	"nerglobalizer/internal/types"
)

func rec(tweetID int, tokens ...string) *Record {
	return &Record{Sentence: &types.Sentence{TweetID: tweetID, Tokens: tokens}}
}

func TestTweetBaseAddGetOrder(t *testing.T) {
	tb := NewTweetBase()
	tb.Add(rec(2, "b"))
	tb.Add(rec(1, "a"))
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	keys := tb.Keys()
	if keys[0].TweetID != 2 || keys[1].TweetID != 1 {
		t.Fatalf("insertion order lost: %v", keys)
	}
	if tb.Get(types.SentenceKey{TweetID: 1}) == nil {
		t.Fatal("Get failed")
	}
	if tb.Get(types.SentenceKey{TweetID: 99}) != nil {
		t.Fatal("missing key should return nil")
	}
}

func TestTweetBaseReplaceKeepsOrder(t *testing.T) {
	tb := NewTweetBase()
	tb.Add(rec(1, "old"))
	tb.Add(rec(1, "new"))
	if tb.Len() != 1 {
		t.Fatalf("replace duplicated record: %d", tb.Len())
	}
	if got := tb.Get(types.SentenceKey{TweetID: 1}).Sentence.Tokens[0]; got != "new" {
		t.Fatalf("record not replaced: %q", got)
	}
}

func TestFinalEntityMapSkipsNone(t *testing.T) {
	tb := NewTweetBase()
	r := rec(1, "us", "said")
	r.FinalMentions = []types.Mention{
		{Key: r.Sentence.Key(), Span: types.Span{Start: 0, End: 1}, Type: types.Location},
		{Key: r.Sentence.Key(), Span: types.Span{Start: 1, End: 2}, Type: types.None},
	}
	tb.Add(r)
	ents := tb.FinalEntityMap()[r.Sentence.Key()]
	if len(ents) != 1 || ents[0].Type != types.Location {
		t.Fatalf("FinalEntityMap = %v", ents)
	}
}

func TestBatches(t *testing.T) {
	sents := make([]*types.Sentence, 7)
	for i := range sents {
		sents[i] = &types.Sentence{TweetID: i}
	}
	b := Batches(sents, 3)
	if len(b) != 3 || len(b[0]) != 3 || len(b[2]) != 1 {
		t.Fatalf("batches = %v", b)
	}
	whole := Batches(sents, 0)
	if len(whole) != 1 || len(whole[0]) != 7 {
		t.Fatal("size<=0 should produce one batch")
	}
	if Batches(nil, 3) != nil {
		t.Fatal("empty input should produce no batches")
	}
}

func TestCandidateBase(t *testing.T) {
	cb := NewCandidateBase()
	cb.SetClusters("us", []*Candidate{
		{Surface: "us", ClusterID: 0, Type: types.Location},
		{Surface: "us", ClusterID: 1, Type: types.None},
	})
	cb.SetClusters("italy", []*Candidate{{Surface: "italy", ClusterID: 0}})
	if cb.Len() != 3 {
		t.Fatalf("Len = %d", cb.Len())
	}
	if len(cb.ForSurface("us")) != 2 {
		t.Fatal("ForSurface wrong")
	}
	surfaces := cb.Surfaces()
	if len(surfaces) != 2 || surfaces[0] != "italy" {
		t.Fatalf("Surfaces = %v", surfaces)
	}
	all := cb.All()
	if len(all) != 3 || all[0].Surface != "italy" {
		t.Fatalf("All = %v", all)
	}
}

func TestLocalEntityMap(t *testing.T) {
	tb := NewTweetBase()
	r := rec(4, "italy")
	r.LocalEntities = []types.Entity{{Span: types.Span{Start: 0, End: 1}, Type: types.Location}}
	tb.Add(r)
	m := tb.LocalEntityMap()
	if len(m[r.Sentence.Key()]) != 1 {
		t.Fatal("LocalEntityMap missing entities")
	}
}

// TestCandidateBaseLenMatchesWalk checks the running count against a
// full walk of the surfaces after random SetClusters/Delete sequences,
// including lists replaced by longer, shorter and empty ones and
// deletes of surfaces the base does not hold.
func TestCandidateBaseLenMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	surfaces := []string{"italy", "us", "rome", "who", "nba"}
	for seq := 0; seq < 50; seq++ {
		cb := NewCandidateBase()
		for step := 0; step < 40; step++ {
			s := surfaces[rng.Intn(len(surfaces))]
			if rng.Intn(3) == 0 {
				cb.Delete(s)
			} else {
				cands := make([]*Candidate, rng.Intn(4))
				for i := range cands {
					cands[i] = &Candidate{Surface: s, ClusterID: i}
				}
				cb.SetClusters(s, cands)
			}
			walk := 0
			for _, surf := range cb.Surfaces() {
				walk += len(cb.ForSurface(surf))
			}
			if cb.Len() != walk {
				t.Fatalf("sequence %d step %d: Len = %d, walk = %d", seq, step, cb.Len(), walk)
			}
		}
	}
	cb := NewCandidateBase()
	cb.Delete("absent")
	if cb.Len() != 0 {
		t.Fatalf("Len after deleting an absent surface = %d", cb.Len())
	}
}
