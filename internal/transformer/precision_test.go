package transformer

import (
	"math"
	"sync"
	"testing"

	"nerglobalizer/internal/nn"
)

// maxRelDiff returns the largest |got−want| / max(1, |want|) over all
// elements — relative where the states are large, absolute near zero.
func maxRelDiff(got, want *nn.Matrix) float64 {
	worst := 0.0
	for i := range want.Data {
		denom := math.Abs(want.Data[i])
		if denom < 1 {
			denom = 1
		}
		if d := math.Abs(got.Data[i]-want.Data[i]) / denom; d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferBatchReducedPrecisionErrorBound bounds the end-to-end
// divergence of the f32 and i8 packed paths from the f64 reference
// across ragged batches (empty sentences, single tokens, truncation).
// The encoder's post-norm blocks keep token states O(1), so a scaled
// relative bound is meaningful: f32 stays within ~1e-4 through two
// blocks; i8 quantizes six GEMMs per block at ~0.4% per-tensor noise.
func TestInferBatchReducedPrecisionErrorBound(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	batch := testSentences(12, 3)
	batch = append(batch, nil, []string{}, []string{"one"},
		testSentences(1, 9)[0], append(testSentences(1, 11)[0], testSentences(1, 13)[0]...))
	want := enc.InferBatch(batch, nn.F64)
	for _, tc := range []struct {
		prec  nn.Precision
		bound float64
	}{{nn.F32, 1e-4}, {nn.I8, 0.15}} {
		got := enc.InferBatch(batch, tc.prec)
		if len(got) != len(want) {
			t.Fatalf("%v: %d outputs, want %d", tc.prec, len(got), len(want))
		}
		for i := range want {
			if got[i].Rows != want[i].Rows || got[i].Cols != want[i].Cols {
				t.Fatalf("%v sentence %d: shape %dx%d, want %dx%d",
					tc.prec, i, got[i].Rows, got[i].Cols, want[i].Rows, want[i].Cols)
			}
			if d := maxRelDiff(got[i], want[i]); d > tc.bound {
				t.Fatalf("%v sentence %d: max relative divergence %g > %g", tc.prec, i, d, tc.bound)
			}
		}
	}
}

// TestInferMatchesInferBatchReduced pins, per tier, a sentence encoded
// alone to the same sentence encoded inside a batch: the packed kernels
// compute a row the same way whatever shares its matrix, so the results
// are bit-identical within a tier — including the reduced ones, which
// have no exact reference.
func TestInferMatchesInferBatchReduced(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	batch := testSentences(6, 5)
	for _, prec := range []nn.Precision{nn.F64, nn.F32, nn.I8} {
		fromBatch := enc.InferBatch(batch, prec)
		for i := range batch {
			single := enc.InferBatch(batch[i:i+1], prec)[0]
			assertBitIdentical(t, single, fromBatch[i], "lone vs batched "+prec.String())
		}
	}
}

// TestInferBatchF64UnaffectedByTierMachinery pins the acceptance
// criterion that the f64 path stays bit-identical whether or not the
// reduced tiers have ever run (the packs are read-only mirrors; the
// f64 kernels never touch them).
func TestInferBatchF64UnaffectedByTierMachinery(t *testing.T) {
	ref := NewEncoder(tinyConfig())
	enc := NewEncoder(tinyConfig())
	batch := testSentences(8, 7)
	want := ref.InferBatch(batch, nn.F64)
	enc.InferBatch(batch, nn.I8) // populate packs, run the reduced path
	enc.InferBatch(batch, nn.F32)
	got := enc.InferBatch(batch, nn.F64)
	for i := range want {
		assertBitIdentical(t, got[i], want[i], "f64 after tier churn")
	}
}

// TestInferBatchMixedPrecisionConcurrent hammers one encoder with
// concurrent InferBatch calls at all three tiers at once (run under
// -race in CI). Each goroutine checks its own results against a
// serial baseline for its tier, so the test also catches cross-tier
// scratch aliasing, not just data races.
func TestInferBatchMixedPrecisionConcurrent(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	batch := testSentences(10, 17)
	baseline := map[nn.Precision][]*nn.Matrix{}
	for _, p := range []nn.Precision{nn.F64, nn.F32, nn.I8} {
		baseline[p] = enc.InferBatch(batch, p)
	}
	const goroutines = 12
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		prec := []nn.Precision{nn.F64, nn.F32, nn.I8}[g%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got := enc.InferBatch(batch, prec)
				for i := range got {
					want := baseline[prec][i]
					for j := range want.Data {
						if got[i].Data[j] != want.Data[j] {
							errs <- prec.String() + ": concurrent result diverges from serial baseline"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
