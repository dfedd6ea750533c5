package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchCorpusLengths is the sentence-length mix of bench/'s corpus
// (genCorpus in bench/streams.go: 2–10 tokens, mean 5.7), as sentences
// of each length per 64-sentence batch. An attention softmax runs over
// rows as long as their sentence, so this — not the packed row count —
// is what decides how much of a row a vector width covers.
var benchCorpusLengths = [...]int{2: 5, 3: 4, 4: 3, 5: 10, 6: 20, 7: 15, 8: 6, 9: 1}

// BenchmarkKernelTiers times the dispatched kernels themselves at each
// supported SIMD level on the pipeline's packed-batch shapes (Dim 24 ×
// FFDim 48, ~900 packed token rows per 64-sentence batch; attention
// rows of the bench corpus's sentence lengths): the
// undiluted per-ISA view below BenchmarkInferBatchTiers
// (internal/transformer, whole encoder per level × precision) and
// bench/'s localner.tag_{f64,f32,i8}_sents_per_s (whole tagger, end to
// end). Run with `go test ./internal/nn -bench KernelTiers`.
func BenchmarkKernelTiers(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	const rows, in, out = 896, 24, 48
	inPad := (in + i8Group - 1) / i8Group * i8Group
	x := make([]float32, rows*inPad)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	wt := make([]float32, out*inPad)
	for i := range wt {
		wt[i] = float32(rng.NormFloat64() * 0.1)
	}
	dst := make([]float32, rows*out)
	act := NewGELU()
	geluIn := &Matrix32{Rows: rows, Cols: out, Data: dst}
	geluOut := NewMatrix32(rows, out)
	ln := NewLayerNorm("bench", in)
	lnX, lnRes, lnOut := NewMatrix32(rows, in), NewMatrix32(rows, in), NewMatrix32(rows, in)
	for i := range lnX.Data {
		lnX.Data[i], lnRes.Data[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	// One T×T score matrix per sentence of the batch.
	var scores, attn []*Matrix32
	for T, count := range benchCorpusLengths {
		for ; count > 0; count-- {
			m := NewMatrix32(T, T)
			for i := range m.Data {
				m.Data[i] = float32(rng.NormFloat64())
			}
			scores, attn = append(scores, m), append(attn, NewMatrix32(T, T))
		}
	}

	defer SetSIMDAuto()
	for _, level := range SupportedSIMDLevels() {
		if err := SetSIMD(level); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dotRows32/%s", level), func(b *testing.B) {
			b.SetBytes(int64(rows * out * inPad * 4))
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					dotRows32(dst[r*out:(r+1)*out], x[r*inPad:(r+1)*inPad], wt)
				}
			}
		})
		b.Run(fmt.Sprintf("geluVec/%s", level), func(b *testing.B) {
			// Through the layer, not the bare hook: the hook covers only
			// the tier's vector prefix — nothing on the reference tier —
			// and the layer finishes the rest with the scalar formula, so
			// every tier's row times the same rows*out elements.
			for i := 0; i < b.N; i++ {
				act.InferInto32(geluOut, geluIn)
			}
		})
		b.Run(fmt.Sprintf("layernorm/%s", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ln.InferResidualInto32(lnOut, lnX, lnRes)
			}
		})
		b.Run(fmt.Sprintf("softmax/%s", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, m := range scores {
					ScaledSoftmaxRows32Into(attn[j], m, 0.2887)
				}
			}
		})
	}
}
