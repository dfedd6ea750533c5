//go:build arm64

package nn

// arm64 kernel tier. NEON (Advanced SIMD) is part of the aarch64 base
// ISA, so the tier needs no feature detection — BestSIMD resolves to
// neon on every arm64 machine. Assembly bodies: simd_arm64.s. The
// float vector instructions the Go assembler lacks mnemonics for are
// emitted as WORD-encoded aarch64 opcodes (fixed 4-byte instructions)
// and pinned by disassembly; see the .s file header.

var archTier = &simdTier{level: SIMDNEON, supported: func() bool { return true }, apply: applyNEON}

func applyNEON(ks *kernelSet) {
	ks.dot = dotRows32NEON
	ks.quant = quantRowNEON
	ks.i8r = i8RowsNEON
	ks.i8r4 = i8Rows4NEON
	ks.gelu = geluVecNEON
	ks.exprow = expRowNEON
	ks.axpy4 = axpy4NEON
	ks.axpy1 = axpy1NEON
	ks.lnSum = lnSumNEON
	ks.lnSq = lnSqNEON
	ks.lnAffine = lnAffineNEON
	ks.rowMax = rowMaxNEON
	ks.vscale = vscaleNEON
}

// dotRows32NEON computes dst[j] = Σ_k a[k]·rows[j·len(a)+k] with two
// 4-wide FMLA accumulators (8 elements per iteration), a 4-block and
// scalar tails. Cross-tier bit equality is not promised (FMA, 4-lane
// accumulation), matching the x86 dot kernels' contract.
//
//go:noescape
func dotRows32NEON(dst, a, rows []float32)

// quantRowNEON quantizes one activation row to symmetric int16:
// 4-wide FABS/FMAX maxabs scan + FMAXV fold, then a 4-wide
// FMUL/FCVTAS/SQXTN quantize loop (round-to-nearest ties away — the
// reference's half-away rounding — with saturation like PACKSSDW).
// Zeroes the padding tail and returns maxabs/32767 (0 for an all-zero
// row). len(q) must be a whole number of i8Group-wide groups.
//
//go:noescape
func quantRowNEON(q []int16, x []float32) float32

// i8RowsNEON computes one activation row of the W8A16 GEMM. Per
// 16-wide group: SSHLL/SSHLL2 widen the int8 weights to int16, four
// SMLAL/SMLAL2 accumulate exact int32 lane sums (each lane ≤
// 4·32767·127 < 2²⁴), ADDV folds the group total (int adds are
// order-exact), and the scalar SCVTF/FMUL/FADD dequant sequence
// matches the reference order — so the kernel is bit-identical to
// i8RowsRef.
//
//go:noescape
func i8RowsNEON(dst []float32, q []int16, wt []int8, scale, b []float32, s float32)

// i8Rows4NEON is i8RowsNEON over four activation rows (dst rows
// dstStride apart, q 4×inPad contiguous, sx the four activation
// scales). Weight widening and scale loads are shared across the
// rows; the per-row operation sequence is identical to i8RowsNEON, so
// per-row bits match the single-row kernel exactly.
//
//go:noescape
func i8Rows4NEON(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int)

// gelu4NEON applies the tanh-approximated GELU four lanes at a time,
// transliterating the scalar operation sequence exactly (no FMA; the
// contract is bit equality with the scalar formula at every tier).
// len(x) must be a multiple of 4; dst may alias x.
//
//go:noescape
func gelu4NEON(dst, x []float32)

// geluVecNEON runs the vectorized GELU over the largest 4-aligned
// prefix and reports how many elements it covered.
func geluVecNEON(dst, x []float32) int {
	n := len(x) &^ 3
	if n > 0 {
		gelu4NEON(dst[:n], x[:n])
	}
	return n
}

// expRow4NEON computes dst[i] = exp32(x[i]·scale − max) four lanes at
// a time and returns the sum of the written values; per-element bits
// match scalar exp32 exactly (same trunc-and-correct floor, same
// Horner order, no FMA). len(x) must be a multiple of 4 and
// x[i]·scale ≤ max.
//
//go:noescape
func expRow4NEON(dst, x []float32, scale, max float32) float32

// expRowNEON runs the 4-wide softmax exp over the largest 4-aligned
// prefix; the caller finishes the tail with scalar exp32.
func expRowNEON(dst, x []float32, scale, max float32) (int, float32) {
	n := len(x) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, expRow4NEON(dst[:n], x[:n], scale, max)
}

// axpy4NEON is the 4-wide saxpy over four rows — FMUL+FADD only (no
// FMLA): bit-identical to the scalar mul-then-add walk, scalar tail
// inside the kernel.
//
//go:noescape
func axpy4NEON(dst, b []float32, stride int, av []float32)

// axpy1NEON is the single-row saxpy, no FMLA, scalar tail inside.
//
//go:noescape
func axpy1NEON(dst, b []float32, av float32)

// lnSum4NEON writes o[j] = x[j] + res[j] four lanes at a time and
// returns the sum of the written values ((l0+l1)+(l2+l3) fold).
// len(o) must be a multiple of 4.
//
//go:noescape
func lnSum4NEON(o, x, res []float32) float32

func lnSumNEON(o, x, res []float32) (int, float32) {
	n := len(o) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, lnSum4NEON(o[:n], x[:n], res[:n])
}

// lnSq4NEON returns Σ (o[j]−mean)² over o, four lanes at a time.
// len(o) must be a multiple of 4.
//
//go:noescape
func lnSq4NEON(o []float32, mean float32) float32

func lnSqNEON(o []float32, mean float32) (int, float32) {
	n := len(o) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, lnSq4NEON(o[:n], mean)
}

// lnAffine4NEON writes o[j] = ((o[j]−mean)·inv)·gamma[j] + beta[j]
// four lanes at a time — the exact scalar operation order, no FMA.
// len(o) must be a multiple of 4.
//
//go:noescape
func lnAffine4NEON(o []float32, mean, inv float32, gamma, beta []float32)

func lnAffineNEON(o []float32, mean, inv float32, gamma, beta []float32) int {
	n := len(o) &^ 3
	if n > 0 {
		lnAffine4NEON(o[:n], mean, inv, gamma, beta)
	}
	return n
}

// rowMax4NEON returns max_j x[j]·scale (FMAX + FMAXV — exact, max
// never reassociates; finite inputs). len(x) must be a non-zero
// multiple of 4.
//
//go:noescape
func rowMax4NEON(x []float32, scale float32) float32

func rowMaxNEON(x []float32, scale float32) (int, float32) {
	n := len(x) &^ 3
	if n == 0 {
		return 0, 0
	}
	return n, rowMax4NEON(x[:n], scale)
}

// vscale4NEON multiplies o by inv in place, four lanes at a time.
// len(o) must be a multiple of 4.
//
//go:noescape
func vscale4NEON(o []float32, inv float32)

func vscaleNEON(o []float32, inv float32) int {
	n := len(o) &^ 3
	if n > 0 {
		vscale4NEON(o[:n], inv)
	}
	return n
}
