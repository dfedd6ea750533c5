//go:build amd64

package nn

// amd64 kernel tier: avx2-fma, dispatched when the CPU has AVX2 and
// FMA and the OS saves YMM state (cpu_amd64.go); without them the host
// runs the portable reference tier. Assembly bodies: the 8-wide f32
// ones and the 4-lane f64 GEMM and GELU in simd_avx2_amd64.s, and in
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
	ks.mm64 = matMulRangeAVX2
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
// consecutive output rows: o holds the rows n apart, a holds them lda
// apart (the panel's kn coefficients first in each), and b is the
// panel's kn rows of n. Each row stays in YMM accumulators across the
// whole panel, in column tiles of 48, 24, 12 and 4 lanes plus a scalar
// tail; per k a ±0 coefficient is skipped and otherwise every lane
// takes one VMULPD then one VADDPD — matMulRangeRef's per-lane
// sequence, so the bits are its bits. rows, kn and n must be positive.
//
//go:noescape
func mm64PanelAVX2(o, a, b []float64, rows, kn, n, lda int)

// matMulRangeAVX2 is matMulRangeRef's panel walk over the row-resident
// assembly body.
func matMulRangeAVX2(dst, a, b *Matrix, i0, i1 int) {
	K, N := a.Cols, b.Cols
	if i0 >= i1 || N == 0 {
		return
	}
	for k0 := 0; k0 < K; k0 += matmulBlock {
		k1 := min(k0+matmulBlock, K)
		mm64PanelAVX2(dst.Data[i0*N:i1*N], a.Data[i0*K+k0:], b.Data[k0*N:k1*N], i1-i0, k1-k0, N, K)
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
