package nn

import (
	"fmt"
	"sync/atomic"

	"nerglobalizer/internal/parallel"
)

// Matrix-multiply kernels. Three layers:
//
//  1. *Into variants write into a caller-owned destination so hot
//     call sites (attention, FFN backprop) can reuse scratch buffers
//     instead of allocating a fresh matrix per call.
//  2. Every kernel is cache-blocked: the inner loops walk a small
//     panel of b that stays resident in L1/L2 while being reused
//     across many output rows.
//  3. Above a flop threshold the output rows are sharded across the
//     package matmul pool. Each output element is still accumulated
//     by exactly one worker in ascending-k order, so the result is
//     bit-identical to the serial kernel at any worker count.
//
// MatMulInto and MatMulTInto run dispatched kernels (simd.go, mm64 and
// mmT64): the scalar references in kernels_ref.go or the tier's vector
// bodies, which keep each output lane's operation sequence and so its
// bits. Each loads the kernel set once and hands it to every row shard,
// so one product never mixes tiers. TMatMulInto (training backprop
// only) stays scalar here.

// matmulBlock is the k-panel height of the blocked kernels: 64 rows of
// a float64 matrix with a few hundred columns fit comfortably in L2.
const matmulBlock = 64

// parallelMatMulMinFlops gates row sharding of the scalar TMatMulInto
// and the f32/i8 GEMMs: below ~128k multiply-adds the goroutine
// fan-out costs more than it saves.
const parallelMatMulMinFlops = 1 << 17

// mm64MinFlops and mmT64MinFlops gate row sharding of the dispatched
// f64 kernels, whose vector bodies finish a shard so fast that a
// two-worker fan-out breaks even only near 10⁶ multiply-adds
// (BenchmarkMatMulKernels, the served rows: on a 2-core avx2-fma host
// both kernels lose or tie sharded up to 5.9·10⁵ and mostly win from
// 1.03·10⁶). The packed batches' projections stay under them and run
// serially even when the pool is wide.
const (
	mm64MinFlops  = 1 << 20
	mmT64MinFlops = 1 << 20
)

// matmulPool is the pool used for oversized multiplies. It defaults to
// the process-wide pool; SetMatMulWorkers overrides it.
var matmulPool atomic.Pointer[parallel.Pool]

// SetMatMulWorkers caps the goroutines used by oversized matrix
// multiplies. workers == 1 forces fully serial kernels; workers <= 0
// restores GOMAXPROCS auto-sizing. Output is bit-identical at every
// setting — the knob trades wall-clock only.
func SetMatMulWorkers(workers int) {
	matmulPool.Store(parallel.New(workers))
}

func kernelPool() *parallel.Pool {
	if p := matmulPool.Load(); p != nil {
		return p
	}
	return parallel.Default()
}

// shardPool returns the pool to fan a kernel out over, or nil when the
// kernel should run serially. Call sites branch on nil and invoke the
// range function directly in the serial case — routing the serial path
// through a callback would heap-allocate a closure per multiply, which
// dominates the profile once the batched inference path drives
// thousands of small attention GEMMs per cycle.
func shardPool(rows, flops, minFlops int) *parallel.Pool {
	p := kernelPool()
	if flops < minFlops || p.Workers() <= 1 || rows <= 1 {
		return nil
	}
	return p
}

// MatMul returns a × b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a × b, overwriting dst, bit-identical to
// the naive triple loop at every tier and worker count. dst must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) { matMulBiasInto(dst, a, b, nil) }

// matMulBiasInto is MatMulInto followed by dst.AddRowVecInPlace(bias)
// when bias is non-nil, with the bias folded into the kernel's final
// store: the same additions in the same order.
func matMulBiasInto(dst, a, b *Matrix, bias []float64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if bias != nil && len(bias) != b.Cols {
		panic(fmt.Sprintf("nn: bias length %d does not match %d cols", len(bias), b.Cols))
	}
	ks := kernels()
	M, K, N := a.Rows, a.Cols, b.Cols
	// The shard closure captures the backing slices, not the matrices,
	// so a caller's stack-held Matrix headers stay on its stack.
	dd, ad, bd := dst.Data, a.Data, b.Data
	if p := shardPool(M, M*K*N, mm64MinFlops); p != nil {
		p.ForEachSpan(M, func(lo, hi int) {
			ks.mm64(dd[lo*N:], ad[lo*K:], bd, bias, hi-lo, N, K, N, K, N)
		})
	} else {
		ks.mm64(dd, ad, bd, bias, M, N, K, N, K, N)
	}
}

// MatMulT returns a × bᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a × bᵀ, overwriting dst: every element is
// Dot(a_i, b_j), bit for bit, at every tier and worker count. dst must
// be a.Rows×b.Rows and must not alias a or b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	ks := kernels()
	M, K, N := a.Rows, a.Cols, b.Rows
	dd, ad, bd := dst.Data, a.Data, b.Data
	if p := shardPool(M, M*K*N, mmT64MinFlops); p != nil {
		p.ForEachSpan(M, func(lo, hi int) {
			ks.mmT64(dd[lo*N:], ad[lo*K:], bd, hi-lo, N, K, N, K, K)
		})
	} else {
		ks.mmT64(dd, ad, bd, M, N, K, N, K, K)
	}
}

// TMatMul returns aᵀ × b.
func TMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes dst = aᵀ × b, overwriting dst. dst must be
// a.Cols×b.Cols and must not alias a or b.
func TMatMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: tmatmul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	if p := shardPool(a.Cols, a.Rows*a.Cols*b.Cols, parallelMatMulMinFlops); p != nil {
		p.ForEachSpan(a.Cols, func(lo, hi int) {
			tMatMulRange(dst, a, b, lo, hi)
		})
	} else {
		tMatMulRange(dst, a, b, 0, a.Cols)
	}
}

// tMatMulRange accumulates output rows [i0, i1) of dst += aᵀ × b.
// Output row i draws from column i of a; sharding by output row keeps
// worker writes disjoint while each element still accumulates over k
// (rows of a) in ascending order.
func tMatMulRange(dst, a, b *Matrix, i0, i1 int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// ReuseMatrix returns m reshaped to rows×cols, reusing its backing
// array when capacity allows, or a fresh matrix otherwise. Scratch
// owners call it once per forward/backward so steady-state hot loops
// stop allocating. The returned matrix's contents are unspecified.
func ReuseMatrix(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}
