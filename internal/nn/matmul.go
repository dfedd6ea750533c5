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

// matmulBlock is the k-panel height of the blocked kernels: 64 rows of
// a float64 matrix with a few hundred columns fit comfortably in L2.
const matmulBlock = 64

// parallelMatMulMinFlops gates row sharding: below ~128k multiply-adds
// the goroutine fan-out costs more than it saves. The pipeline's
// per-token matrices (Dim≈32) stay under it and run serially even when
// the pool is wide.
const parallelMatMulMinFlops = 1 << 17

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
func shardPool(rows, flops int) *parallel.Pool {
	p := kernelPool()
	if flops < parallelMatMulMinFlops || p.Workers() <= 1 || rows <= 1 {
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

// MatMulInto computes dst = a × b, overwriting dst. dst must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	if p := shardPool(a.Rows, a.Rows*a.Cols*b.Cols); p != nil {
		p.ForEachSpan(a.Rows, func(lo, hi int) {
			matMulRange(dst, a, b, lo, hi)
		})
	} else {
		matMulRange(dst, a, b, 0, a.Rows)
	}
}

// matMulRange accumulates rows [i0, i1) of dst += a × b, k-blocked so
// each 64-row panel of b is reused across every output row in the
// span. The k loop is unrolled four-wide: each pass over the output
// row folds in four b rows, quartering the load/store traffic on dst.
// Per output element the additions still happen one at a time in
// ascending-k order — ((o + a₀b₀) + a₁b₁) + … — so the result matches
// the unblocked triple loop bit for bit. Zero a-row entries are
// skipped exactly as the scalar kernel skips them (the fused pass runs
// only when all four coefficients are nonzero; a mixed group falls
// back to the per-k loop), which keeps one-hot and padded inputs cheap
// and never folds in 0·b terms the scalar kernel would have skipped.
func matMulRange(dst, a, b *Matrix, i0, i1 int) {
	K := a.Cols
	for k0 := 0; k0 < K; k0 += matmulBlock {
		k1 := k0 + matmulBlock
		if k1 > K {
			k1 = K
		}
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			k := k0
			for ; k+4 <= k1; k += 4 {
				av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
					for j, v0 := range b0 {
						s := orow[j] + av0*v0
						s += av1 * b1[j]
						s += av2 * b2[j]
						s += av3 * b3[j]
						orow[j] = s
					}
					continue
				}
				for kk := k; kk < k+4; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := b.Row(kk)
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
			for ; k < k1; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// MatMulT returns a × bᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a × bᵀ, overwriting dst. dst must be
// a.Rows×b.Rows and must not alias a or b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if p := shardPool(a.Rows, a.Rows*a.Cols*b.Rows); p != nil {
		p.ForEachSpan(a.Rows, func(lo, hi int) {
			matMulTRange(dst, a, b, lo, hi)
		})
	} else {
		matMulTRange(dst, a, b, 0, a.Rows)
	}
}

// matMulTRange fills rows [i0, i1) of dst = a × bᵀ, j-blocked so a
// panel of b rows is reused across the span. Every element is one full
// dot product, so blocking cannot change its value.
func matMulTRange(dst, a, b *Matrix, i0, i1 int) {
	for j0 := 0; j0 < b.Rows; j0 += matmulBlock {
		j1 := j0 + matmulBlock
		if j1 > b.Rows {
			j1 = b.Rows
		}
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			for j := j0; j < j1; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
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
	if p := shardPool(a.Cols, a.Rows*a.Cols*b.Cols); p != nil {
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
