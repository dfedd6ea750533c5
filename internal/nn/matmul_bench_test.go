package nn

import (
	"fmt"
	"testing"
)

// BenchmarkMatMulKernels compares the pre-existing naive triple loop
// (kept above as the test reference) against the blocked kernel and the
// blocked+parallel kernel at pipeline-relevant sizes, then times each
// dispatched f64 kernel — mm64 (MatMulInto) and mmT64 (MatMulTInto) —
// serial against row-sharded over the pool at the encoder's served
// shapes and a range of packed row counts: the break-evens
// mm64MinFlops and mmT64MinFlops stand for. The sharded rows call the
// pool directly, so the gates themselves do not decide them. Run with
// `go test ./internal/nn -bench MatMulKernels -benchmem`.
func BenchmarkMatMulKernels(b *testing.B) {
	rng := NewRNG(1)
	for _, sh := range [][2]int{{24, 24}, {24, 48}, {48, 24}} {
		K, N := sh[0], sh[1]
		w := randMatrix(K, N, rng)
		wt := randMatrix(N, K, rng)
		for _, rows := range []int{32, 64, 128, 256, 512, 896, 1792} {
			x := randMatrix(rows, K, rng)
			dst := NewMatrix(rows, N)
			for _, kern := range []string{"mm64", "mmT64"} {
				mul := func(ks *kernelSet, lo, hi int) {
					if kern == "mm64" {
						ks.mm64(dst.Data[lo*N:], x.Data[lo*K:], w.Data, nil, hi-lo, N, K, N, K, N)
					} else {
						ks.mmT64(dst.Data[lo*N:], x.Data[lo*K:], wt.Data, hi-lo, N, K, N, K, K)
					}
				}
				name := fmt.Sprintf("served/%s/%dx%d/rows%d/flops%d", kern, K, N, rows, rows*K*N)
				b.Run(name+"/serial", func(b *testing.B) {
					ks := kernels()
					for i := 0; i < b.N; i++ {
						mul(ks, 0, rows)
					}
				})
				b.Run(name+"/parallel", func(b *testing.B) {
					ks, p := kernels(), kernelPool()
					for i := 0; i < b.N; i++ {
						p.ForEachSpan(rows, func(lo, hi int) { mul(ks, lo, hi) })
					}
				})
			}
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
