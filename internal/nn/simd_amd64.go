//go:build amd64

package nn

import "sync"

// amd64 kernel tier: avx2-fma, dispatched when the CPU has AVX2 and
// FMA and the OS saves YMM state (cpu_amd64.go); without them the host
// runs the portable reference tier. Assembly bodies: the 8-wide f32
// ones and the 4-lane f64 GEMM (which the transposed GEMM reuses),
// softmax exp and GELU in simd_avx2_amd64.s, and in
// simd_amd64.s the 4-lane SSE2-encoded bodies the tier keeps for the
// W8A16 GEMM and the softmax passes.

var archTier = &simdTier{level: SIMDAVX2, supported: func() bool { return cpuHasAVX2FMA }, apply: applyAVX2}

func applyAVX2(ks *kernelSet) {
	ks.dot = dotRows32AVX2
	ks.quant = quantRowAVX2
	ks.i8r = i8RowsSSE2
	ks.i8r4 = i8Rows4SSE2
	ks.gelu = geluVecAVX2
	// The three softmax passes (exprow, rowMax, vscale) are 4-lane. An
	// attention row is as long as its sentence, and an 8-lane body
	// covers nothing of a row under 8 tokens and leaves up to 7 lanes
	// to the scalar tail above that, where the 4-lane bodies leave at
	// most 3. Measured on an avx2-fma host, 8-lane bodies lost 10 of 10
	// alternated runs on rows of 2 to 10 tokens (BenchmarkKernelTiers
	// softmax rows, the served length mix) and were level on rows of 8
	// to 20 tokens (42.3–44.5 µs 4-lane vs 43.5–46.9 µs 8-lane), so no
	// tweet length pays for them.
	ks.exprow = expRowSSE2
	ks.axpy4 = axpy4AVX2
	ks.axpy1 = axpy1AVX2
	ks.lnSum = lnSumAVX2
	ks.lnSq = lnSqAVX2
	ks.lnAffine = lnAffineAVX2
	ks.rowMax = rowMaxSSE2
	ks.vscale = vscaleSSE2
	ks.mm64 = mm64AVX2
	ks.mmT64 = mmT64AVX2
	ks.exp64 = exp64AVX2
	ks.gelu64 = gelu64AVX2
}

// i8RowsSSE2 computes one activation row of the W8A16 GEMM:
// dst[o] = s · Σ_g (Σ_{i∈g} q[i]·wt[o·inPad+i]) · scale[o·nb+g] + b[o],
// with len(q) a whole number of i8Group-wide groups (zero-padded by
// the caller).
//
//go:noescape
func i8RowsSSE2(dst []float32, q []int16, wt []int8, scale, b []float32, s float32)

// i8Rows4SSE2 is i8RowsSSE2 over four activation rows: dst rows sit
// dstStride apart (out contiguous elements each), q is 4×inPad
// contiguous, sx holds the four activation scales. Weight
// sign-extension and scale broadcasts are shared across the rows;
// per-row results are bit-identical to i8RowsSSE2, so row blocking
// never changes the output.
//
//go:noescape
func i8Rows4SSE2(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int)

// expRow4SSE2 computes dst[i] = exp32(x[i]·scale − max) four lanes at
// a time and returns the sum of the written values. len(x) must be a
// multiple of 4 and x[i]·scale ≤ max (the softmax contract: w ≤ 0).
// Per-element bits match scalar exp32 exactly — same trunc-and-correct
// floor, same Horner order, no FMA.
//
//go:noescape
func expRow4SSE2(dst, x []float32, scale, max float32) float32

// expRowSSE2 runs the 4-wide softmax exp over the largest 4-aligned
// prefix; the caller finishes the tail with scalar exp32.
func expRowSSE2(dst, x []float32, scale, max float32) (int, float32) {
	n := len(x) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, expRow4SSE2(dst[:n], x[:n], scale, max)
}

// rowMax4SSE2 returns max_j x[j]·scale, four lanes at a time. len(x)
// must be a non-zero multiple of 4; inputs finite (MAXPS NaN ordering
// is not the scalar comparison's).
//
//go:noescape
func rowMax4SSE2(x []float32, scale float32) float32

func rowMaxSSE2(x []float32, scale float32) (int, float32) {
	n := len(x) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, rowMax4SSE2(x[:n], scale)
}

// vscale4SSE2 multiplies o by inv in place, four lanes at a time.
// len(o) must be a multiple of 4.
//
//go:noescape
func vscale4SSE2(o []float32, inv float32)

func vscaleSSE2(o []float32, inv float32) int {
	n := len(o) &^ 3
	if n > 0 {
		vscale4SSE2(o[:n], inv)
	}
	return n
}

// dotRows32AVX2 is dotRows32 with two 8-wide FMA accumulators: 16
// elements per iteration, 8/4/scalar tails, VZEROUPPER on exit.
//
//go:noescape
func dotRows32AVX2(dst, a, rows []float32)

// quantRowAVX2 is quantRow with an 8-wide maxabs scan and a 16-wide
// quantize loop (VCVTPS2DQ round-half-even + VPACKSSDW).
//
//go:noescape
func quantRowAVX2(q []int16, x []float32) float32

// gelu8AVX2 applies the tanh-approximated GELU eight lanes at a time,
// replicating the scalar operation sequence exactly (no FMA — the
// contract is bit equality with the scalar formula). len(x) must be a
// multiple of 8; dst may alias x.
//
//go:noescape
func gelu8AVX2(dst, x []float32)

// geluVecAVX2 runs the 8-wide GELU over the largest 8-aligned prefix
// and reports how many elements it covered.
func geluVecAVX2(dst, x []float32) int {
	n := len(x) &^ 7
	if n > 0 {
		gelu8AVX2(dst[:n], x[:n])
	}
	return n
}

// axpy4AVX2 accumulates dst[j] += av[0]·b[j] + av[1]·b[stride+j] +
// av[2]·b[2·stride+j] + av[3]·b[3·stride+j] for every j, mul-then-add
// in ascending row order with 8-wide VMULPS/VADDPS (deliberately no
// FMA — the cross-tier bit-identity contract) and 4-wide + scalar
// tails inside the kernel. stride is in elements; len(b) must cover
// 3·stride+len(dst); len(av) ≥ 4.
//
//go:noescape
func axpy4AVX2(dst, b []float32, stride int, av []float32)

// axpy1AVX2 accumulates dst[j] += av·b[j] (the k-tail of the saxpy
// walk), 8-wide, no FMA, tails inside the kernel.
//
//go:noescape
func axpy1AVX2(dst, b []float32, av float32)

// lnSum8AVX2 writes o[j] = x[j] + res[j] eight lanes at a time and
// returns the sum of the written values (8-lane accumulator, high/low
// fold, then (l0+l2)+(l1+l3)). len(o) must be a multiple of 8.
//
//go:noescape
func lnSum8AVX2(o, x, res []float32) float32

func lnSumAVX2(o, x, res []float32) (int, float32) {
	n := len(o) &^ 7
	if n == 0 {
		return 0, 0
	}
	return n, lnSum8AVX2(o[:n], x[:n], res[:n])
}

// lnSq8AVX2 returns Σ (o[j]−mean)² over o, eight lanes at a time.
// len(o) must be a multiple of 8.
//
//go:noescape
func lnSq8AVX2(o []float32, mean float32) float32

func lnSqAVX2(o []float32, mean float32) (int, float32) {
	n := len(o) &^ 7
	if n == 0 {
		return 0, 0
	}
	return n, lnSq8AVX2(o[:n], mean)
}

// lnAffine8AVX2 writes o[j] = ((o[j]−mean)·inv)·gamma[j] + beta[j]
// eight lanes at a time — the exact scalar operation order, no FMA, so
// bits match the reference. len(o) must be a multiple of 8.
//
//go:noescape
func lnAffine8AVX2(o []float32, mean, inv float32, gamma, beta []float32)

func lnAffineAVX2(o []float32, mean, inv float32, gamma, beta []float32) int {
	n := len(o) &^ 7
	if n > 0 {
		lnAffine8AVX2(o[:n], mean, inv, gamma, beta)
	}
	return n
}

// mm64PanelAVX2 accumulates o += a × b over one k panel for rows
// consecutive output rows: o holds the rows ldo apart, a holds them lda
// apart (the panel's kn coefficients first in each), and b is the
// panel's kn rows of n, ldb apart. Each row stays in YMM accumulators
// across the whole panel, in column tiles of 48, 24, 12 and 4 lanes
// plus one masked tile for the last 1–3 columns (lanes past n are
// neither read nor written); per k a ±0 coefficient is skipped unless
// keep is nonzero, and otherwise every lane takes one VMULPD then one VADDPD —
// the references' per-lane sequence, so the bits are theirs. flags
// mmFromZero starts the accumulators at +0 instead of loading o, and
// mmAddBias adds bias[j] to each lane before the store. rows, kn and n
// must be positive.
//
//go:noescape
func mm64PanelAVX2(o, a, b, bias []float64, rows, kn, n, ldo, lda, ldb, keep, flags int)

const (
	mmFromZero = 1
	mmAddBias  = 2
)

// mustCover panics unless s holds rows rows of n elements, ld apart:
// the assembly bodies index the strided views unchecked.
func mustCover(s []float64, rows, n, ld int) {
	if len(s) < (rows-1)*ld+n {
		panic("nn: strided view shorter than its shape")
	}
}

// mm64AVX2 is mm64Ref's panel walk over the row-resident assembly
// body: the first panel starts from +0 and the last one adds the bias.
func mm64AVX2(dst, a, b, bias []float64, m, n, k, ldd, lda, ldb int) {
	if m == 0 || n == 0 || k == 0 {
		mm64Ref(dst, a, b, bias, m, n, k, ldd, lda, ldb)
		return
	}
	mustCover(dst, m, n, ldd)
	mustCover(a, m, k, lda)
	mustCover(b, k, n, ldb)
	if bias != nil {
		mustCover(bias, 1, n, n)
	}
	for k0 := 0; k0 < k; k0 += matmulBlock {
		k1 := min(k0+matmulBlock, k)
		flags := 0
		if k0 == 0 {
			flags |= mmFromZero
		}
		if k1 == k && bias != nil {
			flags |= mmAddBias
		}
		mm64PanelAVX2(dst, a[k0:], b[k0*ldb:], bias, m, k1-k0, n, ldd, lda, ldb, 0, flags)
	}
}

// mmT64Bufs recycles mmT64AVX2's transposed-operand blocks.
var mmT64Bufs = sync.Pool{New: func() any { return new([]float64) }}

// mmT64AVX2 is mmT64Ref on the GEMM panel body: it transposes b into a
// contiguous k×n block and runs the panels from +0 with keep set, so
// each element is Dot's ascending-k mul-then-add with no term skipped.
func mmT64AVX2(dst, a, b []float64, m, n, k, ldd, lda, ldb int) {
	if m == 0 || n == 0 || k == 0 {
		mmT64Ref(dst, a, b, m, n, k, ldd, lda, ldb)
		return
	}
	mustCover(dst, m, n, ldd)
	mustCover(a, m, k, lda)
	buf := mmT64Bufs.Get().(*[]float64)
	if cap(*buf) < n*k {
		*buf = make([]float64, n*k)
	}
	bt := (*buf)[:n*k]
	for j := 0; j < n; j++ {
		for kk, v := range b[j*ldb : j*ldb+k] {
			bt[kk*n+j] = v
		}
	}
	for k0 := 0; k0 < k; k0 += matmulBlock {
		k1 := min(k0+matmulBlock, k)
		flags := 0
		if k0 == 0 {
			flags = mmFromZero
		}
		mm64PanelAVX2(dst, a[k0:], bt[k0*n:], nil, m, k1-k0, n, ldd, lda, n, 1, flags)
	}
	mmT64Bufs.Put(buf)
}

// exp64RowsAVX2 is the exp pass over rows of cols elements, row r
// against max[r]: four lanes at a time, each row's last 1–3 elements as
// one masked block, bit-identical to math.Exp. It stops in front of the
// first block holding a lane outside math.Exp's plain path (NaN, ±Inf,
// overflow, a subnormal or zero result) and returns how many elements
// it wrote. dst may alias x; len(x) must be a multiple of cols.
//
//go:noescape
func exp64RowsAVX2(dst, x []float64, cols int, scale float64, max []float64) int

// exp64AVX2 runs the 4-lane exp pass; the rest of a row whose block
// stopped it runs on scalar math.Exp, and the pass resumes at the next
// row.
func exp64AVX2(dst, x []float64, cols int, scale float64, max []float64) {
	for p := 0; p < len(x); {
		p += exp64RowsAVX2(dst[p:len(x)], x[p:], cols, scale, max[p/cols:])
		if p < len(x) {
			r := p / cols
			end := (r + 1) * cols
			exp64Ref(dst[p:end], x[p:end], end-p, scale, max[r:r+1])
			p = end
		}
	}
}

// gelu64x4AVX2 applies the tanh-approximated GELU four f64 lanes at a
// time, bit-identical to gelu64Ref: math.Tanh's three branches are
// computed for every lane and blended, the exp branch transliterating
// math.Exp's amd64 FMA path. len(x) must be a multiple of 4; dst may
// alias x.
//
//go:noescape
func gelu64x4AVX2(dst, x []float64)

// gelu64AVX2 runs the 4-lane GELU over the largest 4-aligned prefix
// and the reference loop over the rest.
func gelu64AVX2(dst, x []float64) {
	n := len(x) &^ 3
	if n > 0 {
		gelu64x4AVX2(dst[:n], x[:n])
	}
	gelu64Ref(dst[n:len(x)], x[n:])
}
