package ctrie

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nerglobalizer/internal/types"
)

func TestInsertAndContains(t *testing.T) {
	tr := New()
	if !tr.Insert([]string{"Andy", "Beshear"}) {
		t.Fatal("first insert should report true")
	}
	if tr.Insert([]string{"andy", "beshear"}) {
		t.Fatal("duplicate (case-insensitive) insert should report false")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Contains([]string{"ANDY", "BESHEAR"}) {
		t.Fatal("Contains must be case-insensitive")
	}
	if tr.Contains([]string{"andy"}) {
		t.Fatal("prefix of a surface form is not itself a surface form")
	}
	if tr.Insert(nil) {
		t.Fatal("empty insert must be a no-op")
	}
}

func TestPrefixAndNestedForms(t *testing.T) {
	tr := New()
	tr.InsertSurface("new york")
	tr.InsertSurface("new york city")
	tr.InsertSurface("new")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Surfaces()
	sort.Strings(got)
	want := []string{"new", "new york", "new york city"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Surfaces = %v", got)
	}
}

func TestScanLongestMatch(t *testing.T) {
	tr := New()
	tr.InsertSurface("new york")
	tr.InsertSurface("new york city")
	toks := strings.Fields("i love New York City a lot")
	got := tr.Scan(toks)
	want := []Match{{Start: 2, End: 5, Surface: "new york city"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
}

func TestScanFallsBackToShorterMatch(t *testing.T) {
	tr := New()
	tr.InsertSurface("new york")
	tr.InsertSurface("new york city")
	toks := strings.Fields("flying to new york tomorrow")
	got := tr.Scan(toks)
	want := []Match{{Start: 2, End: 4, Surface: "new york"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
}

func TestScanMultipleAndAdjacent(t *testing.T) {
	tr := New()
	tr.InsertSurface("italy")
	tr.InsertSurface("canada")
	toks := strings.Fields("Italy Canada both closed borders with italy")
	got := tr.Scan(toks)
	want := []Match{
		{Start: 0, End: 1, Surface: "italy"},
		{Start: 1, End: 2, Surface: "canada"},
		{Start: 6, End: 7, Surface: "italy"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan = %v", got)
	}
}

func TestScanPartialPathThenRestart(t *testing.T) {
	// "andy beshear" is registered; "andy warhol" should not match,
	// but a later full mention must still be found even though "andy"
	// consumed trie steps.
	tr := New()
	tr.InsertSurface("andy beshear")
	toks := strings.Fields("andy warhol met andy beshear")
	got := tr.Scan(toks)
	want := []Match{{Start: 3, End: 5, Surface: "andy beshear"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan = %v", got)
	}
}

func TestScanOverlapCandidates(t *testing.T) {
	// Registered forms "a b" and "b c": scanning "a b c" should match
	// "a b" first (leftmost-longest), leaving "c" alone.
	tr := New()
	tr.InsertSurface("a b")
	tr.InsertSurface("b c")
	got := tr.Scan([]string{"a", "b", "c"})
	want := []Match{{Start: 0, End: 2, Surface: "a b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan = %v", got)
	}
}

func TestScanEmpty(t *testing.T) {
	tr := New()
	if got := tr.Scan([]string{"anything"}); got != nil {
		t.Fatalf("empty trie Scan = %v", got)
	}
	tr.InsertSurface("x")
	if got := tr.Scan(nil); got != nil {
		t.Fatalf("nil tokens Scan = %v", got)
	}
}

// Property: every match returned by Scan is a registered surface form
// and matches are non-overlapping and sorted left to right.
func TestScanWellFormedProperty(t *testing.T) {
	vocab := []string{"a", "b", "c", "d"}
	f := func(formSeeds [3]uint16, sentSeed [10]uint8) bool {
		tr := New()
		for _, fs := range formSeeds {
			n := 1 + int(fs)%3
			toks := make([]string, n)
			v := int(fs)
			for i := range toks {
				toks[i] = vocab[v%len(vocab)]
				v /= len(vocab)
			}
			tr.Insert(toks)
		}
		sent := make([]string, len(sentSeed))
		for i, s := range sentSeed {
			sent[i] = vocab[int(s)%len(vocab)]
		}
		matches := tr.Scan(sent)
		prevEnd := 0
		for _, m := range matches {
			if m.Start < prevEnd || m.End <= m.Start || m.End > len(sent) {
				return false
			}
			if !tr.ContainsSurface(m.Surface) {
				return false
			}
			if types.CanonicalSurface(sent[m.Start:m.End]) != m.Surface {
				return false
			}
			prevEnd = m.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTrieScan measures the mention-extraction hot path: matches
// must reuse the canonical surface cached on the terminal node at
// Insert time instead of re-joining (and re-allocating) the matched
// tokens per hit. The allocs/op column is the regression guard — a
// match costs one slice append, not one string join.
func BenchmarkTrieScan(b *testing.B) {
	tr := New()
	vocab := []string{"andy", "beshear", "new", "york", "city", "italy", "canada", "covid", "governor", "update"}
	for i := 0; i < len(vocab); i++ {
		tr.Insert([]string{vocab[i]})
		for j := 0; j < len(vocab); j++ {
			if i != j {
				tr.Insert([]string{vocab[i], vocab[j]})
			}
		}
	}
	sent := strings.Fields("Governor Andy Beshear gives a covid update from New York City before flying to Italy and Canada again")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Scan(sent)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// TestScanSurfaceMatchesCanonical pins the node-cached surface to the
// canonical form of the matched tokens.
func TestScanSurfaceMatchesCanonical(t *testing.T) {
	tr := New()
	tr.Insert([]string{"New", "York"})
	tr.InsertSurface("ITALY")
	for _, m := range tr.Scan(strings.Fields("NEW YORK beats italy")) {
		if m.Surface != types.CanonicalSurface([]string{"new", "york"}) && m.Surface != "italy" {
			t.Fatalf("surface %q not canonical", m.Surface)
		}
	}
	got := tr.Scan(strings.Fields("nEw YoRk"))
	if len(got) != 1 || got[0].Surface != "new york" {
		t.Fatalf("Scan = %v", got)
	}
}

// Property: insert then Contains is always true; Surfaces count equals Len.
func TestInsertContainsProperty(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps"}
	f := func(seeds [5]uint16) bool {
		tr := New()
		inserted := map[string]bool{}
		for _, s := range seeds {
			n := 1 + int(s)%3
			toks := make([]string, n)
			v := int(s)
			for i := range toks {
				toks[i] = vocab[v%len(vocab)]
				v /= len(vocab)
			}
			tr.Insert(toks)
			inserted[strings.Join(toks, " ")] = true
			if !tr.Contains(toks) {
				return false
			}
		}
		return tr.Len() == len(inserted) && len(tr.Surfaces()) == len(inserted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
