package transformer

import (
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

// TestInferMatchesForward pins a one-sentence InferBatch at F64 to the
// training forward bit for bit.
func TestInferMatchesForward(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	sents := [][]string{
		{"covid", "in", "italy"},
		{"@user", "loves", "#nyc", "!"},
		{"BREAKING", "earthquake", "near", "Tokyo", "http://t.co/x"},
	}
	for _, toks := range sents {
		want := enc.Forward(toks, false)
		got := enc.InferBatch([][]string{toks}, nn.F64)[0]
		assertBitIdentical(t, got, want, "one-sentence InferBatch vs Forward")
	}
}

// TestInferConcurrent shares one encoder across goroutines; go test
// -race is the real assertion, plus bit-identical outputs.
func TestInferConcurrent(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	toks := []string{"flooding", "in", "jakarta", "today"}
	want := enc.Forward(toks, false)
	p := parallel.New(8)
	outs := parallel.MapOrdered(p, 32, func(i int) []float64 {
		return enc.InferBatch([][]string{toks}, nn.F64)[0].Data
	})
	for _, data := range outs {
		for i := range want.Data {
			if data[i] != want.Data[i] {
				t.Fatal("concurrent InferBatch output diverged")
			}
		}
	}
}

// TestForwardScratchReuseStable pins that recycling attention scratch
// between calls does not perturb outputs: two Forward passes over
// different-length inputs then a repeat of the first must reproduce it.
func TestForwardScratchReuseStable(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	a := []string{"storm", "hits", "coast"}
	b := []string{"just", "one", "more", "random", "tweet", "here"}
	first := enc.Forward(a, false)
	enc.Forward(b, false)
	again := enc.Forward(a, false)
	for i := range first.Data {
		if first.Data[i] != again.Data[i] {
			t.Fatalf("scratch reuse changed output at %d", i)
		}
	}
}
