package corpus

import (
	"strings"
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

func smallConfig() StreamConfig {
	return evalNoise(StreamConfig{
		Name: "test", NumTweets: 300, NumTopics: 2,
		PerTopicEntities: [4]int{10, 8, 6, 6},
		Ambiguity:        true, Streaming: true, Seed: 42,
	})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Sentences) != len(b.Sentences) {
		t.Fatal("sizes differ")
	}
	for i := range a.Sentences {
		if a.Sentences[i].Text() != b.Sentences[i].Text() {
			t.Fatalf("sentence %d differs", i)
		}
	}
}

func TestGenerateGoldSpansValid(t *testing.T) {
	d := Generate(smallConfig())
	if d.Size() != 300 {
		t.Fatalf("size = %d", d.Size())
	}
	for _, s := range d.Sentences {
		for _, g := range s.Gold {
			if g.Start < 0 || g.End > len(s.Tokens) || g.Start >= g.End {
				t.Fatalf("invalid gold span %+v in %v", g, s.Tokens)
			}
			if g.Type == types.None {
				t.Fatal("gold entity with None type")
			}
		}
	}
}

func TestGenerateEntityRecurrence(t *testing.T) {
	d := Generate(smallConfig())
	// Streaming datasets must repeat entities: mentions should clearly
	// exceed unique entities.
	unique := d.UniqueEntities()
	mentions := d.MentionCount()
	if unique == 0 || mentions == 0 {
		t.Fatal("no entities generated")
	}
	if float64(mentions) < 1.5*float64(unique) {
		t.Fatalf("insufficient recurrence: %d mentions over %d entities", mentions, unique)
	}
}

func TestStreamingVsNonStreamingRecurrence(t *testing.T) {
	stream := D1()
	random := WNUT17()
	sRec := float64(stream.MentionCount()) / float64(stream.UniqueEntities())
	rRec := float64(random.MentionCount()) / float64(random.UniqueEntities())
	if sRec <= rRec {
		t.Fatalf("streaming recurrence (%v) should exceed non-streaming (%v)", sRec, rRec)
	}
}

func TestTableIShapes(t *testing.T) {
	cases := []struct {
		d     *Dataset
		size  int
		paper int // paper's #Entities (approximate target)
	}{
		{D1(), 1000, 283},
		{D2(), 2000, 461},
	}
	for _, c := range cases {
		if c.d.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.d.Name, c.d.Size(), c.size)
		}
		u := c.d.UniqueEntities()
		// The synthetic inventory targets the paper's magnitude; allow
		// a factor-of-two band.
		if u < c.paper/2 || u > c.paper*2 {
			t.Errorf("%s unique entities = %d, paper %d", c.d.Name, u, c.paper)
		}
	}
}

func TestAmbiguitySurfacesPresent(t *testing.T) {
	cfg := smallConfig()
	cfg.NumTweets = 1200 // enough draws to hit the injected traps
	d := Generate(cfg)
	// "us" must occur both as a gold Location mention and as a plain
	// pronoun token in non-entity contexts.
	var asEntity, asPronoun bool
	for _, s := range d.Sentences {
		goldAt := map[int]bool{}
		for _, g := range s.Gold {
			for i := g.Start; i < g.End; i++ {
				goldAt[i] = true
			}
			if g.Span.Len() == 1 && strings.EqualFold(s.Tokens[g.Start], "us") && g.Type == types.Location {
				asEntity = true
			}
		}
		for i, tok := range s.Tokens {
			if strings.EqualFold(tok, "us") && !goldAt[i] {
				asPronoun = true
			}
		}
	}
	if !asEntity || !asPronoun {
		t.Fatalf("ambiguity traps missing: entity=%v pronoun=%v", asEntity, asPronoun)
	}
}

func TestZipfLongTail(t *testing.T) {
	d := D2()
	freq := map[string]int{}
	for _, s := range d.Sentences {
		for _, g := range s.Gold {
			freq[s.SurfaceAt(g.Span)+"/"+g.Type.String()]++
		}
	}
	max, singletons := 0, 0
	for _, f := range freq {
		if f > max {
			max = f
		}
		if f == 1 {
			singletons++
		}
	}
	if max < 10 {
		t.Fatalf("head entity frequency = %d, want Zipfian head", max)
	}
	if singletons < len(freq)/10 {
		t.Fatalf("long tail too thin: %d singletons of %d entities", singletons, len(freq))
	}
}

func TestGoldByKeyCoversAllSentences(t *testing.T) {
	d := Generate(smallConfig())
	gold := d.GoldByKey()
	if len(gold) != len(d.Sentences) {
		t.Fatalf("gold map size %d, sentences %d", len(gold), len(d.Sentences))
	}
}

func TestPretrainCorpora(t *testing.T) {
	tw := PretrainTweets(100, 9)
	if len(tw) != 100 {
		t.Fatalf("tweets = %d", len(tw))
	}
	formal := PretrainFormal(100, 9)
	if len(formal) != 100 {
		t.Fatalf("formal = %d", len(formal))
	}
	// Formal text must contain no hashtags.
	for _, sent := range formal {
		for _, tok := range sent {
			if strings.HasPrefix(tok, "#") {
				t.Fatalf("formal corpus contains hashtag %q", tok)
			}
		}
	}
}

func TestMaybeTypoPreservesShortTokens(t *testing.T) {
	rng := nn.NewRNG(1)
	if got := maybeTypo(rng, "ab", 1); got != "ab" {
		t.Fatalf("short token mutated: %q", got)
	}
	// With rate 1 a long token must change.
	changed := false
	for i := 0; i < 20; i++ {
		if maybeTypo(rng, "coronavirus", 1) != "coronavirus" {
			changed = true
		}
	}
	if !changed {
		t.Fatal("typo never applied at rate 1")
	}
}

func TestGenerateTopicAmbiguityInjection(t *testing.T) {
	rng := nn.NewRNG(5)
	topic := GenerateTopic(rng, "x", 5, 5, 2, 2, 1.1, true)
	surfaces := map[string]map[types.EntityType]bool{}
	for _, e := range topic.Entities {
		if surfaces[e.Surface()] == nil {
			surfaces[e.Surface()] = map[types.EntityType]bool{}
		}
		surfaces[e.Surface()][e.Type] = true
	}
	if !surfaces["us"][types.Location] {
		t.Fatal("ambiguous 'us' location missing")
	}
	if !surfaces["trump"][types.Person] {
		t.Fatal("ambiguous 'trump' person missing")
	}
}
