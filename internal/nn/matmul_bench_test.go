package nn

import (
	"fmt"
	"testing"
)

// BenchmarkMatMulKernels compares the pre-existing naive triple loop
// (kept above as the test reference) against the blocked kernel and the
// blocked+parallel kernel at pipeline-relevant sizes, then times the
// dispatched f64 row walk serial against row-sharded over the pool at
// the encoder's served shapes and a range of packed row counts: the
// break-even parallelMatMulMinFlops stands for. The sharded rows call
// the pool directly, so the gate itself does not decide them. Run with
// `go test ./internal/nn -bench MatMulKernels -benchmem`.
func BenchmarkMatMulKernels(b *testing.B) {
	rng := NewRNG(1)
	for _, sh := range [][2]int{{24, 24}, {24, 48}, {48, 24}} {
		w := randMatrix(sh[0], sh[1], rng)
		for _, rows := range []int{32, 64, 128, 256, 512, 896, 1792} {
			x := randMatrix(rows, sh[0], rng)
			dst := NewMatrix(rows, sh[1])
			name := fmt.Sprintf("served/%dx%d/rows%d/flops%d", sh[0], sh[1], rows, rows*sh[0]*sh[1])
			b.Run(name+"/serial", func(b *testing.B) {
				ks := kernels()
				for i := 0; i < b.N; i++ {
					dst.Zero()
					ks.mm64(dst, x, w, 0, rows)
				}
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				ks, p := kernels(), kernelPool()
				for i := 0; i < b.N; i++ {
					dst.Zero()
					p.ForEachSpan(rows, func(lo, hi int) {
						ks.mm64(dst, x, w, lo, hi)
					})
				}
			})
		}
	}
	for _, n := range []int{64, 256, 1024} {
		a := randMatrix(n, n, rng)
		bm := randMatrix(n, n, rng)
		b.Run(fmt.Sprintf("naive/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matMulNaive(a, bm)
			}
		})
		b.Run(fmt.Sprintf("blocked/%d", n), func(b *testing.B) {
			SetMatMulWorkers(1)
			defer SetMatMulWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(a, bm)
			}
		})
		b.Run(fmt.Sprintf("blocked-parallel/%d", n), func(b *testing.B) {
			SetMatMulWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(a, bm)
			}
		})
		b.Run(fmt.Sprintf("blocked-into/%d", n), func(b *testing.B) {
			SetMatMulWorkers(1)
			defer SetMatMulWorkers(0)
			dst := NewMatrix(n, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bm)
			}
		})
	}
}
