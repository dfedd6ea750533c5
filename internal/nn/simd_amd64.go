//go:build amd64

package nn

// amd64 kernel tiers. SSE2 is part of the amd64 baseline (GOAMD64=v1)
// so the SSE2 tier needs no feature detection; the AVX2 tier
// additionally requires FMA and OS-enabled YMM state (cpu_amd64.go).
// Assembly bodies: simd_amd64.s (SSE2), simd_avx2_amd64.s (AVX2/FMA).
//
// Tiers are applied cumulatively by newKernelSet (simd.go): the AVX2
// overlay inherits the SSE2 bodies (W8A16, softmax) for the entry
// points it does not replace.

var archTiers = []simdTier{
	{level: SIMDSSE2, supported: func() bool { return true }, apply: applySSE2},
	{level: SIMDAVX2, supported: func() bool { return cpuHasAVX2FMA }, apply: applyAVX2},
}

func applySSE2(ks *kernelSet) {
	ks.dot = dotRows32SSE2
	ks.quant = quantRowSSE2
	ks.i8r = i8RowsSSE2
	ks.i8r4 = i8Rows4SSE2
	ks.gelu = geluVecSSE2
	ks.exprow = expRowSSE2
	ks.axpy4 = axpy4SSE2
	ks.axpy1 = axpy1SSE2
	ks.lnSum = lnSumSSE2
	ks.lnSq = lnSqSSE2
	ks.lnAffine = lnAffineSSE2
	ks.rowMax = rowMaxSSE2
	ks.vscale = vscaleSSE2
}

func applyAVX2(ks *kernelSet) {
	ks.dot = dotRows32AVX2
	ks.quant = quantRowAVX2
	// The W8A16 kernels (i8r, i8r4) stay at the SSE2 bodies, inherited
	// from the SSE2 overlay.
	ks.gelu = geluVecAVX2
	// The three softmax passes (exprow, rowMax, vscale) stay at the SSE2
	// bodies too. An attention row is as long as its sentence, and an
	// 8-lane body covers nothing of a row under 8 tokens and leaves up
	// to 7 lanes to the scalar tail above that, where the 4-lane bodies
	// leave at most 3. Measured on the avx2-fma box, 8-lane bodies lost
	// 10 of 10 alternated runs on rows of 2 to 10 tokens
	// (BenchmarkKernelTiers softmax rows, the served length mix) and
	// were level on rows of 8 to 20 tokens (42.3–44.5 µs SSE2 vs
	// 43.5–46.9 µs AVX2), so no tweet length pays for them.
	ks.axpy4 = axpy4AVX2
	ks.axpy1 = axpy1AVX2
	ks.lnSum = lnSumAVX2
	ks.lnSq = lnSqAVX2
	ks.lnAffine = lnAffineAVX2
}

// dotRows32SSE2 computes dst[j] = Σ_k a[k]·rows[j·len(a)+k] for every
// j: one activation row against len(dst) contiguous (transposed)
// weight rows. len(rows) must be at least len(dst)·len(a).
//
//go:noescape
func dotRows32SSE2(dst, a, rows []float32)

// quantRowSSE2 quantizes one activation row to symmetric int16 in q,
// zeroes the q[len(x):] padding tail, and returns the dequantization
// scale maxabs/32767 (0 for an all-zero row). len(q) must be a whole
// number of i8Group-wide groups and at least len(x).
//
//go:noescape
func quantRowSSE2(q []int16, x []float32) float32

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

// gelu4SSE2 applies the tanh-approximated GELU four lanes at a time.
// len(x) must be a multiple of 4; dst may alias x.
//
//go:noescape
func gelu4SSE2(dst, x []float32)

// geluVecSSE2 runs the vectorized GELU over the largest 4-aligned
// prefix and reports how many elements it covered; the caller
// finishes the tail with the scalar formula.
func geluVecSSE2(dst, x []float32) int {
	n := len(x) &^ 3
	if n > 0 {
		gelu4SSE2(dst[:n], x[:n])
	}
	return n
}

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

// axpy4SSE2 accumulates dst[j] += av[0]·b[j] + av[1]·b[stride+j] +
// av[2]·b[2·stride+j] + av[3]·b[3·stride+j] for every j, mul-then-add
// in ascending row order with a scalar tail inside the kernel —
// bit-identical to the scalar 4-wide saxpy walk at every j. stride is
// in elements; len(b) must cover 3·stride+len(dst); len(av) ≥ 4.
//
//go:noescape
func axpy4SSE2(dst, b []float32, stride int, av []float32)

// axpy1SSE2 accumulates dst[j] += av·b[j] (the k-tail of the saxpy
// walk), scalar tail inside the kernel.
//
//go:noescape
func axpy1SSE2(dst, b []float32, av float32)

// lnSum4SSE2 writes o[j] = x[j] + res[j] four lanes at a time and
// returns the sum of the written values (4-lane accumulator folded
// (l0+l2)+(l1+l3)). len(o) must be a multiple of 4.
//
//go:noescape
func lnSum4SSE2(o, x, res []float32) float32

func lnSumSSE2(o, x, res []float32) (int, float32) {
	n := len(o) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, lnSum4SSE2(o[:n], x[:n], res[:n])
}

// lnSq4SSE2 returns Σ (o[j]−mean)² over o, four lanes at a time.
// len(o) must be a multiple of 4.
//
//go:noescape
func lnSq4SSE2(o []float32, mean float32) float32

func lnSqSSE2(o []float32, mean float32) (int, float32) {
	n := len(o) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, lnSq4SSE2(o[:n], mean)
}

// lnAffine4SSE2 writes o[j] = ((o[j]−mean)·inv)·gamma[j] + beta[j]
// four lanes at a time — the exact scalar operation order, no FMA, so
// bits match the reference at every tier. len(o) must be a multiple
// of 4; gamma/beta at least as long.
//
//go:noescape
func lnAffine4SSE2(o []float32, mean, inv float32, gamma, beta []float32)

func lnAffineSSE2(o []float32, mean, inv float32, gamma, beta []float32) int {
	n := len(o) &^ 3
	if n > 0 {
		lnAffine4SSE2(o[:n], mean, inv, gamma, beta)
	}
	return n
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

// axpy4AVX2 is axpy4SSE2 with 8-wide VMULPS/VADDPS (deliberately no
// FMA — the cross-tier bit-identity contract) and 4-wide + scalar
// tails inside the kernel.
//
//go:noescape
func axpy4AVX2(dst, b []float32, stride int, av []float32)

// axpy1AVX2 is axpy1SSE2, 8-wide, no FMA, tails inside the kernel.
//
//go:noescape
func axpy1AVX2(dst, b []float32, av float32)

// lnSum8AVX2 is lnSum4SSE2 eight lanes at a time (8-lane accumulator,
// high/low fold then the SSE2 pairing). len(o) must be a multiple of 8.
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

// lnSq8AVX2 is lnSq4SSE2 eight lanes at a time. len(o) must be a
// multiple of 8.
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

// lnAffine8AVX2 is lnAffine4SSE2 eight lanes at a time, no FMA.
// len(o) must be a multiple of 8.
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
