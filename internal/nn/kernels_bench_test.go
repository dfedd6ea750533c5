package nn

import (
	"fmt"
	"math"
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
// rows of the bench corpus's sentence lengths), the f64 GEMM, GELU,
// softmax exp, attention scores and packed attention included: the
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
	// The f64 tier at the encoder's served shapes: the packed rows
	// through the 24→24 attention projections, the 24→48 and 48→24
	// feed-forward pair, and the GELU between them.
	shapes64 := [][2]int{{in, in}, {in, out}, {out, in}}
	gelu64In, gelu64Out := randomMatrix(rows, out, 23), NewMatrix(rows, out)
	act := NewGELU()
	geluIn := &Matrix32{Rows: rows, Cols: out, Data: dst}
	geluOut := NewMatrix32(rows, out)
	ln := NewLayerNorm("bench", in)
	lnX, lnRes, lnOut := NewMatrix32(rows, in), NewMatrix32(rows, in), NewMatrix32(rows, in)
	for i := range lnX.Data {
		lnX.Data[i], lnRes.Data[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	// The f64 attention path: exp64 over each of the batch's T×T score
	// blocks (logit differences ≤ 0), one call per block, mmT64 at the
	// served head shapes (T×12 against T×12), and AttentionHeadInto
	// over one layer of packed planes (Dim 24, 2 heads of 12).
	type expBlock struct {
		T      int
		x, max []float64
	}
	var expBlocks []expBlock
	for T, count := range benchCorpusLengths {
		for ; count > 0; count-- {
			blk := expBlock{T: T, x: make([]float64, T*T), max: make([]float64, T)}
			for j := range blk.x {
				blk.x[j] = -math.Abs(rng.NormFloat64()) * 2
			}
			expBlocks = append(expBlocks, blk)
		}
	}
	expOut := make([]float64, 100)
	headQ, headK := randomMatrix(24, 12, 31), randomMatrix(24, 12, 37)
	headS := NewMatrix(24, 24)
	var segs []int // packed segment lengths, in corpus order
	for T, count := range benchCorpusLengths {
		for ; count > 0; count-- {
			segs = append(segs, T)
		}
	}
	planeRows := 0
	for _, T := range segs {
		planeRows += T
	}
	pq, pk, pv := randomMatrix(planeRows, in, 41), randomMatrix(planeRows, in, 43), randomMatrix(planeRows, in, 47)
	pout, pscores := NewMatrix(planeRows, in), NewMatrix(10, 10)

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
		for _, sh := range shapes64 {
			a, w, c := randomMatrix(rows, sh[0], 19), randomMatrix(sh[0], sh[1], 29), NewMatrix(rows, sh[1])
			b.Run(fmt.Sprintf("matmul64/%dx%d/%s", sh[0], sh[1], level), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulInto(c, a, w)
				}
			})
		}
		b.Run(fmt.Sprintf("gelu64/%s", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				act.InferInto(gelu64Out, gelu64In)
			}
		})
		b.Run(fmt.Sprintf("exp64/%s", level), func(b *testing.B) {
			ks := kernels()
			for i := 0; i < b.N; i++ {
				for _, blk := range expBlocks {
					T := blk.T
					ks.exp64(expOut[:T*T], blk.x, T, 1, blk.max)
				}
			}
		})
		for _, T := range []int{8, 16, 24} {
			q, k := &Matrix{Rows: T, Cols: 12, Data: headQ.Data[:T*12]}, &Matrix{Rows: T, Cols: 12, Data: headK.Data[:T*12]}
			s := &Matrix{Rows: T, Cols: T, Data: headS.Data[:T*T]}
			b.Run(fmt.Sprintf("mmT64/T%d/dh12/%s", T, level), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulTInto(s, q, k)
				}
			})
		}
		b.Run(fmt.Sprintf("attention64/%s", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off := 0
				for _, T := range segs {
					s := &Matrix{Rows: T, Cols: T, Data: pscores.Data[:T*T]}
					for h := 0; h < 2; h++ {
						AttentionHeadInto(pout, pq, pk, pv, s, off, T, h*12, 12, 0.2887)
					}
					off += T
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
