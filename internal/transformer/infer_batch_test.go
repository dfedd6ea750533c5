package transformer

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"nerglobalizer/internal/nn"
)

// testSentences builds a deterministic ragged batch mixing ordinary
// words, social-media tokens, and casing so every embedding feature
// path participates.
func testSentences(n int, seed int) [][]string {
	vocab := []string{
		"coronavirus", "cases", "rise", "in", "Italy", "NHS", "#lockdown",
		"@gov", "http://x.co/1", "2020", "trump", "beshear", "kentucky", "the",
	}
	out := make([][]string, n)
	state := seed*2654435761 + 1
	for i := range out {
		state = state*1103515245 + 12345
		T := (state>>16)&7 + 1
		if state < 0 {
			T = -state%7 + 1
		}
		sent := make([]string, T)
		for j := range sent {
			state = state*1103515245 + 12345
			idx := state % len(vocab)
			if idx < 0 {
				idx = -idx
			}
			sent[j] = vocab[idx]
		}
		out[i] = sent
	}
	return out
}

func assertBitIdentical(t *testing.T, got, want *nn.Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s diverges at element %d: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferBatchIdentityRagged pins InferBatch at F64 to the training
// forward of every sentence bit for bit across ragged batches that
// include empty sentences, single tokens, and sentences at (and beyond)
// MaxLen.
func TestInferBatchIdentityRagged(t *testing.T) {
	cfg := tinyConfig()
	enc := NewEncoder(cfg)
	long := make([]string, cfg.MaxLen)
	overlong := make([]string, cfg.MaxLen+9)
	for i := range long {
		long[i] = fmt.Sprintf("tok%d", i)
	}
	for i := range overlong {
		overlong[i] = fmt.Sprintf("word%d", i)
	}
	batches := [][][]string{
		nil,
		{{}},
		{{"hello"}},
		{{}, {"hello", "world"}, {}},
		{long, {}, overlong, {"a"}},
		append(testSentences(13, 4), []string{}, long, overlong),
	}
	for bi, batch := range batches {
		got := enc.InferBatch(batch, nn.F64)
		if len(got) != len(batch) {
			t.Fatalf("batch %d: %d outputs for %d sentences", bi, len(got), len(batch))
		}
		for i, toks := range batch {
			want := enc.Forward(toks, false)
			assertBitIdentical(t, got[i], want, fmt.Sprintf("batch %d sentence %d", bi, i))
		}
	}
}

// TestInferBatchIdentityAcrossCompositions verifies that a sentence's
// output does not depend on what it is packed with: the same sentences
// split into batches of 1, 4, 7 and all-at-once must each equal the
// sentence's own training forward bit for bit.
func TestInferBatchIdentityAcrossCompositions(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	sents := testSentences(24, 9)
	for _, size := range []int{1, 4, 7, len(sents)} {
		for lo := 0; lo < len(sents); lo += size {
			hi := lo + size
			if hi > len(sents) {
				hi = len(sents)
			}
			part := enc.InferBatch(sents[lo:hi], nn.F64)
			for i := range part {
				assertBitIdentical(t, part[i], enc.Forward(sents[lo+i], false),
					fmt.Sprintf("size %d chunk at %d sentence %d", size, lo, i))
			}
		}
	}
}

// TestInferBatchIdentityConcurrent hammers one shared Encoder (and its
// scratch pool) from many goroutines mixing batched and one-sentence
// InferBatch calls, and checks every result against the serial
// training forward. Run with -race this doubles as the data-race smoke
// for the scratch arena recycling.
func TestInferBatchIdentityConcurrent(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	sents := testSentences(40, 77)
	refs := make([]*nn.Matrix, len(sents))
	for i, s := range sents {
		refs[i] = enc.Forward(s, false)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				lo := (g + iter) % len(sents)
				hi := lo + 1 + (g+iter)%9
				if hi > len(sents) {
					hi = len(sents)
				}
				if g%3 == 0 {
					// Mix in one-sentence calls to interleave pool usage.
					for i := lo; i < hi; i++ {
						out := enc.InferBatch(sents[i:i+1], nn.F64)[0]
						for j := range out.Data {
							if out.Data[j] != refs[i].Data[j] {
								errs <- fmt.Errorf("goroutine %d: lone sentence %d diverges", g, i)
								return
							}
						}
					}
					continue
				}
				outs := enc.InferBatch(sents[lo:hi], nn.F64)
				for i, out := range outs {
					ref := refs[lo+i]
					if out.Rows != ref.Rows {
						errs <- fmt.Errorf("goroutine %d: sentence %d rows %d want %d", g, lo+i, out.Rows, ref.Rows)
						return
					}
					for j := range ref.Data {
						if out.Data[j] != ref.Data[j] {
							errs <- fmt.Errorf("goroutine %d: sentence %d diverges", g, lo+i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLayerNamesDeepStack is the regression test for the layerName bug:
// rune arithmetic produced "layer:" for layer 10, colliding parameter
// names past layer 9. A 12-layer encoder must name every layer
// distinctly and decimally.
func TestLayerNamesDeepStack(t *testing.T) {
	cfg := tinyConfig()
	cfg.Layers = 12
	enc := NewEncoder(cfg)
	seen := map[string]bool{}
	for _, p := range enc.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for i := 0; i < 12; i++ {
		prefix := fmt.Sprintf("layer%d.", i)
		found := false
		for name := range seen {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no parameter named %s*", prefix)
		}
	}
	if layerName(10) != "layer10" {
		t.Fatalf("layerName(10) = %q", layerName(10))
	}
}

// TestEmbedInferFiniteOnEdgeTokens guards the trigram-average division:
// tokens must embed to finite values even when they produce degenerate
// trigram sets (empty token, single rune, exotic runes).
func TestEmbedInferFiniteOnEdgeTokens(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	for _, tok := range []string{"", "a", "€", "^$", "…"} {
		out := enc.InferBatch([][]string{{tok}}, nn.F64)[0]
		for i, v := range out.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("token %q: non-finite output at %d: %v", tok, i, v)
			}
		}
		// The guarded helper itself must leave the row finite even when
		// handed a trigram-free token.
		row := make([]float64, enc.cfg.Dim)
		enc.embed.inferRowInto(row, tok, 0)
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("inferRowInto(%q): non-finite at %d: %v", tok, i, v)
			}
		}
	}
}

// TestInferRowFastPathMatchesCanonical pins the allocation-free ASCII
// embedding path to the string-materializing reference: for every
// token shape the row must equal copy(tok bucket) + mean(trigram
// buckets) + ortho features + position, computed via hashToken and
// charTrigrams.
func TestInferRowFastPathMatchesCanonical(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	e := enc.embed
	tokens := []string{
		"", "a", "It", "ITALY", "covid", "#LockDown2020", "@Gov", "http://x.co/1",
		"café", "München", "…", "naïve", "MiXeD123", "^$",
	}
	for pos, tok := range tokens {
		p := pos % e.cfg.MaxLen
		want := make([]float64, e.cfg.Dim)
		copy(want, e.tok.W.Row(hashToken(tok, e.cfg.VocabBuckets)))
		grams := charTrigrams(tok)
		if len(grams) > 0 {
			inv := 1 / float64(len(grams))
			for _, gram := range grams {
				nn.AddScaled(want, e.char.W.Row(hashToken(gram, e.cfg.CharBuckets)), inv)
			}
		}
		for _, f := range orthoFeatures(tok) {
			nn.AddScaled(want, e.ortho.W.Row(f), 1)
		}
		nn.AddScaled(want, e.pos.Row(p), 1)

		got := make([]float64, e.cfg.Dim)
		e.inferRowInto(got, tok, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("token %q element %d: %v vs %v", tok, i, got[i], want[i])
			}
		}
	}
}

// benchSentences builds tweet-shaped sentences (8–20 tokens) for the
// inference benchmarks.
func benchSentences(n int) [][]string {
	base := testSentences(n, 3)
	for i := range base {
		for len(base[i]) < 8+(i%13) {
			base[i] = append(base[i], base[i][len(base[i])%len(base[i])])
		}
	}
	return base
}

// BenchmarkInferSerial measures the packed path fed one sentence per
// call (what SetInferBatch(0) runs) at the small-scale pipeline's encoder
// size.
func BenchmarkInferSerial(b *testing.B) {
	cfg := Config{Dim: 24, Heads: 2, Layers: 2, FFDim: 48, MaxLen: 24,
		VocabBuckets: 1024, CharBuckets: 256, Seed: 3}
	enc := NewEncoder(cfg)
	sents := benchSentences(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sents {
			enc.InferBatch(sents[j:j+1], nn.F64)
		}
	}
}

// BenchmarkInferBatch measures one 64-sentence call over the same
// workload; steady state should show near-zero allocations per batch.
func BenchmarkInferBatch(b *testing.B) {
	cfg := Config{Dim: 24, Heads: 2, Layers: 2, FFDim: 48, MaxLen: 24,
		VocabBuckets: 1024, CharBuckets: 256, Seed: 3}
	enc := NewEncoder(cfg)
	sents := benchSentences(64)
	enc.InferBatch(sents, nn.F64) // grow the scratch arena once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.InferBatch(sents, nn.F64)
	}
}

// BenchmarkInferBatchTiers runs the packed batched path at every
// supported SIMD level × precision tier on one fixed 64-sentence batch
// — the encoder-level view of the per-tier tagging rates bench/ reports
// end to end as localner.tag_{f64,f32,i8}_sents_per_s (at the host's
// best level only). `make bench-smoke` runs it once per cell.
func BenchmarkInferBatchTiers(b *testing.B) {
	cfg := Config{Dim: 24, Heads: 2, Layers: 2, FFDim: 48, MaxLen: 24,
		VocabBuckets: 1024, CharBuckets: 256, Seed: 3}
	sents := benchSentences(64)
	defer nn.SetSIMDAuto()
	for _, level := range nn.SupportedSIMDLevels() {
		if err := nn.SetSIMD(level); err != nil {
			b.Fatal(err)
		}
		for _, p := range []nn.Precision{nn.F64, nn.F32, nn.I8} {
			b.Run(fmt.Sprintf("%s/%s", level, p), func(b *testing.B) {
				enc := NewEncoder(cfg)
				enc.InferBatch(sents, p) // build the packs, grow the arena
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc.InferBatch(sents, p)
				}
			})
		}
	}
}

// TestInferBatchTierISAStability is the determinism contract for the
// kernel-dispatch layer at the encoder level: within any one forced
// SIMD tier, the reduced-precision batch output must be bit-identical no matter how many GEMM workers carve the batch —
// the 2D tiling must never change a row's arithmetic. The f64 path
// uses no dispatched kernels, so it must additionally be bit-identical
// across every SIMD level.
func TestInferBatchTierISAStability(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	sents := append(testSentences(24, 5), []string{}, []string{"solo"})
	defer nn.SetSIMDAuto()
	defer nn.SetMatMulWorkers(0)

	nn.SetMatMulWorkers(1)
	f64Base := enc.InferBatch(sents, nn.F64)
	for _, level := range nn.SupportedSIMDLevels() {
		if err := nn.SetSIMD(level); err != nil {
			t.Fatalf("SetSIMD(%s): %v", level, err)
		}
		for _, prec := range []nn.Precision{nn.F32, nn.I8} {
			nn.SetMatMulWorkers(1)
			base := enc.InferBatch(sents, prec)
			for _, workers := range []int{2, 8} {
				nn.SetMatMulWorkers(workers)
				got := enc.InferBatch(sents, prec)
				for i := range base {
					assertBitIdentical(t, got[i], base[i],
						fmt.Sprintf("%s/%s workers=%d sentence %d", level, prec, workers, i))
				}
			}
		}
		nn.SetMatMulWorkers(1)
		f64Got := enc.InferBatch(sents, nn.F64)
		for i := range f64Base {
			assertBitIdentical(t, f64Got[i], f64Base[i],
				fmt.Sprintf("%s/f64 sentence %d", level, i))
		}
	}
}

// TestAttentionCombineCrossTierIdentity pins the attention-combine
// step (probability rows × value head, the MatMul32Into call inside
// inferPacked32) to identical bits at every kernel tier on the segment
// shapes the batch walk actually produces: empty segments, single
// tokens, sub-lane head widths, and ragged T×T probability blocks.
// The combine kernels vectorize only along independent output columns
// (mul-then-add, no FMA, k never split), so — unlike the surrounding
// dot-product GEMMs — its output is a cross-ISA invariant; this is
// what lets a sharded fleet mix ISAs without the combine contributing
// any drift.
func TestAttentionCombineCrossTierIdentity(t *testing.T) {
	shapes := []struct{ T, dh int }{{0, 8}, {1, 1}, {2, 3}, {5, 8}, {17, 32}, {33, 7}}
	defer nn.SetSIMDAuto()
	defer nn.SetMatMulWorkers(0)

	type seg struct{ attnW, vh, want *nn.Matrix32 }
	segs := make([]seg, len(shapes))
	if err := nn.SetSIMD(nn.SIMDGeneric); err != nil {
		t.Fatal(err)
	}
	nn.SetMatMulWorkers(1)
	state := uint64(0x9E3779B97F4A7C15)
	randf := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(int32(state>>33)) / (1 << 31)
	}
	for i, sh := range shapes {
		s := seg{
			attnW: nn.NewMatrix32(sh.T, sh.T),
			vh:    nn.NewMatrix32(sh.T, sh.dh),
			want:  nn.NewMatrix32(sh.T, sh.dh),
		}
		// Rows of attnW mimic softmax output: non-negative, ~normalized.
		for r := 0; r < sh.T; r++ {
			row := s.attnW.Row(r)
			var sum float32
			for j := range row {
				row[j] = randf()*0.5 + 0.5
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
		}
		for j := range s.vh.Data {
			s.vh.Data[j] = randf()
		}
		nn.MatMul32Into(s.want, s.attnW, s.vh)
		segs[i] = s
	}

	for _, level := range nn.SupportedSIMDLevels() {
		if err := nn.SetSIMD(level); err != nil {
			t.Fatalf("SetSIMD(%s): %v", level, err)
		}
		for _, workers := range []int{1, 4} {
			nn.SetMatMulWorkers(workers)
			for i, sh := range shapes {
				got := nn.NewMatrix32(sh.T, sh.dh)
				nn.MatMul32Into(got, segs[i].attnW, segs[i].vh)
				for j, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(segs[i].want.Data[j]) {
						t.Fatalf("T=%d dh=%d level=%s workers=%d: combine elem %d = %g, generic %g",
							sh.T, sh.dh, level, workers, j, v, segs[i].want.Data[j])
					}
				}
			}
		}
	}
}
