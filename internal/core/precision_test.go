package core

import (
	"reflect"
	"testing"

	"nerglobalizer/internal/corpus"
	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/types"
)

// TestGoldenStreamAnnotationsIdenticalAcrossTiers is the end-to-end
// precision contract: on the seed evaluation stream the reduced tiers
// must produce exactly the f64 annotations — the kernel error bounds
// are tuned so quantization noise never crosses a decision boundary on
// this distribution. On failure the test prints the f64 decision-margin
// histogram so the bound (or the tier's kernel scope) can be re-tuned.
func TestGoldenStreamAnnotationsIdenticalAcrossTiers(t *testing.T) {
	g := trainedGlobalizer(t)
	setTier := func(p nn.Precision) {
		t.Helper()
		if err := g.SetPrecision(p); err != nil {
			t.Fatalf("SetPrecision(%s): %v", p, err)
		}
	}
	defer setTier(nn.F64)

	test := smallStream("golden", 250, 31)
	setTier(nn.F64)
	base := g.Run(test.Sentences, ModeFull)

	// Every dispatched kernel tier must preserve the annotations: the
	// reduced tiers' numerics differ across ISA levels (FMA, lane
	// widths, quantizer tie rounding), so the identity is re-proven at
	// each level this machine supports, not just the boot default.
	defer nn.SetSIMDAuto()
	for _, level := range nn.SupportedSIMDLevels() {
		if err := nn.SetSIMD(level); err != nil {
			t.Fatalf("SetSIMD(%s): %v", level, err)
		}
		for _, tier := range []nn.Precision{nn.F32, nn.I8} {
			setTier(tier)
			got := g.Run(test.Sentences, ModeFull)
			if !reflect.DeepEqual(base.Local, got.Local) {
				logMarginHistogram(t, g, test, tier)
				t.Fatalf("tier %s at SIMD level %s changed Local NER annotations on the golden stream", tier, level)
			}
			if !reflect.DeepEqual(base.Final, got.Final) {
				logMarginHistogram(t, g, test, tier)
				t.Fatalf("tier %s at SIMD level %s changed final annotations on the golden stream", tier, level)
			}
		}
	}
}

// logMarginHistogram prints the distribution of f64 per-token decision
// margins over the stream — the diagnostic for a reduced tier flipping
// a tag: flips happen where the margin is below the tier's effective
// logit perturbation, so the low buckets say how much headroom is left.
func logMarginHistogram(t *testing.T, g *Globalizer, test *corpus.Dataset, tier nn.Precision) {
	t.Helper()
	bounds := []float64{1e-4, 1e-3, 1e-2, 0.1, 0.3, 1}
	counts := make([]int, len(bounds)+1)
	minMargin, tokens := -1.0, 0
	for _, s := range test.Sentences {
		res := g.Tagger.Run(s.Tokens, nn.F64)
		if res.Embeddings == nil {
			continue
		}
		for _, m := range g.Tagger.Margins(res.Embeddings) {
			tokens++
			if minMargin < 0 || m < minMargin {
				minMargin = m
			}
			i := 0
			for i < len(bounds) && m >= bounds[i] {
				i++
			}
			counts[i]++
		}
	}
	t.Logf("f64 decision-margin histogram over %d tokens (tier %s flipped a tag):", tokens, tier)
	lo := 0.0
	for i, c := range counts {
		if i < len(bounds) {
			t.Logf("  [%g, %g): %d", lo, bounds[i], c)
			lo = bounds[i]
		} else {
			t.Logf("  [%g, inf): %d", lo, c)
		}
	}
	t.Logf("  min margin: %g", minMargin)
}

// TestPrecisionConfigValidation pins the no-silent-fallback contract:
// unknown spellings are rejected at construction, and the BiGRU
// encoder (no tier support) refuses reduced tiers instead of quietly
// running exact.
func TestPrecisionConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.InferPrecision = "fp16"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New must panic on an unknown InferPrecision spelling")
			}
		}()
		New(cfg)
	}()

	cfg = testConfig()
	cfg.Kind = EncoderBiGRU
	g := New(cfg)
	if err := g.SetPrecision(nn.F32); err == nil {
		t.Fatal("SetPrecision(f32) must fail for the BiGRU encoder")
	}
	if got := g.Precision(); got != nn.F64 {
		t.Fatalf("failed SetPrecision must leave the tier at f64, got %s", got)
	}
	if err := g.SetPrecision(nn.F64); err != nil {
		t.Fatalf("SetPrecision(f64) must succeed for the BiGRU encoder: %v", err)
	}

	cfg = testConfig()
	cfg.Kind = EncoderBiGRU
	cfg.InferPrecision = "i8"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New must panic on a reduced tier with a tierless encoder")
			}
		}()
		New(cfg)
	}()
}

// TestSetPrecisionSurvivesObjectiveSwap pins that a WithObjective view
// inherits the active tier.
func TestSetPrecisionSurvivesObjectiveSwap(t *testing.T) {
	g := trainedGlobalizer(t)
	if err := g.SetPrecision(nn.F32); err != nil {
		t.Fatal(err)
	}
	defer g.SetPrecision(nn.F64)
	v := g.WithObjective(ObjectiveSoftNN)
	if got := v.Precision(); got != nn.F32 {
		t.Fatalf("WithObjective view tier = %s, want f32", got)
	}
}

// TestPhraseEmbedderExactAtEveryTier pins that the tier reaches mention
// embeddings through the token states only: over one tier's token
// states, the engine at that tier embeds a mention to exactly the bytes
// the f64 engine does.
func TestPhraseEmbedderExactAtEveryTier(t *testing.T) {
	g := trainedGlobalizer(t)
	defer g.SetPrecision(nn.F64)
	tokens := smallStream("embed", 1, 7).Sentences[0].Tokens
	span := types.Span{Start: 0, End: 2}
	for _, tier := range []nn.Precision{nn.F32, nn.I8} {
		states := g.Tagger.Embed(tokens, tier)
		if err := g.SetPrecision(nn.F64); err != nil {
			t.Fatal(err)
		}
		want := g.Embedder.Embed(states, span)
		if err := g.SetPrecision(tier); err != nil {
			t.Fatal(err)
		}
		if got := g.Embedder.Embed(states, span); !reflect.DeepEqual(got, want) {
			t.Fatalf("tier %s: Phrase Embedder output differs from the f64 engine's on the same token states", tier)
		}
	}
}
