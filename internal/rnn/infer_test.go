package rnn

import (
	"testing"

	"nerglobalizer/internal/nn"
	"nerglobalizer/internal/parallel"
)

func TestInferMatchesForward(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	sents := [][]string{
		{"covid", "in", "italy"},
		{"@user", "loves", "#nyc", "!"},
		{"BREAKING", "quake", "near", "Tokyo"},
	}
	for _, toks := range sents {
		want := enc.Forward(toks, false)
		got := enc.InferBatch([][]string{toks}, nn.F64)[0]
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("InferBatch diverges from Forward at element %d", i)
			}
		}
	}
}

// TestInferConcurrent shares one encoder across goroutines; go test
// -race is the real assertion, plus bit-identical outputs.
func TestInferConcurrent(t *testing.T) {
	enc := NewEncoder(tinyConfig())
	toks := []string{"flooding", "in", "jakarta"}
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
