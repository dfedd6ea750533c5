package nn

import "math"

// Reduced-precision inference kernels. These are the f32/i8 siblings
// of the fused f64 kernels in fused.go, operating on Matrix32 scratch
// planes and the packed weight mirrors from pack.go. They drop the
// bit-identity contract of the f64 path in exchange for bandwidth:
// the correctness contract here is the relative-error bound pinned by
// the property tests in precision_test.go plus annotation-equal
// end-to-end output on the golden streams (internal/core).
//
// Kernel shape: the f64 GEMM walks b row-wise (saxpy) and re-loads
// every dst element once per k; the reduced kernels instead read the
// TRANSPOSED mirror so each output element is one contiguous dot
// product — no dst traffic, no zero-check branches, and the bias folds
// into the same pass. The per-row inner loops (dotRows32, i8Rows) live
// in simd_amd64.s / simd_generic.go: SSE2 on amd64 — four-lane f32
// multiply-accumulate, and PMADDWD int16×int8 for the quantized tier —
// with portable pure-Go bodies everywhere else.

// InferInto32 computes dst = x·W + b over the float32 weight mirror.
// dst must be x.Rows×Out and must not alias x. Rows are sharded across
// the matmul pool as the f64 kernels' are (shardPool); every output
// element is one contiguous dot product, so shard boundaries never
// change the bits.
func (d *Dense) InferInto32(dst, x *Matrix32) {
	ks := kernels()
	pk := d.pack32s()
	checkInferShape(dst.Rows, dst.Cols, x.Rows, x.Cols, pk.in, pk.out)
	if p := shardPool(x.Rows, x.Rows*pk.in*pk.out); p != nil {
		p.ForEachSpan(x.Rows, func(lo, hi int) {
			inferRows32(dst, x, pk, ks, lo, hi)
		})
	} else {
		inferRows32(dst, x, pk, ks, 0, x.Rows)
	}
}

// inferRows32 computes activation rows [r0,r1) of the f32 GEMM.
func inferRows32(dst, x *Matrix32, pk *pack32, ks *kernelSet, r0, r1 int) {
	for i := r0; i < r1; i++ {
		or := dst.Row(i)
		ks.dot(or, x.Row(i), pk.wt)
		for o, bv := range pk.b {
			or[o] += bv
		}
	}
}

// I8Scratch holds the per-call buffers of the int8-weight kernel: the
// quantized activation plane (int16 q) and its per-row dynamic
// quantization scale sx. One instance per concurrent caller (it lives
// in the inference arena); buffers grow on demand and are reused
// across calls.
type I8Scratch struct {
	q  []int16
	sx []float32
}

func (s *I8Scratch) ensure(rows, cols int) ([]int16, []float32) {
	n := rows * cols
	if cap(s.q) < n {
		s.q = make([]int16, n)
	}
	if cap(s.sx) < rows {
		s.sx = make([]float32, rows)
	}
	return s.q[:n], s.sx[:rows]
}

// InferIntoI8 computes dst ≈ x·W + b through the int8 weight mirror.
// The weights carry the tier's bandwidth win (one byte per element,
// group-wise scales); activations are quantized dynamically per row to
// symmetric int16, scale maxabs/32767 (W8A16). Each group's Σ q·w
// accumulates exactly in int32; dequantization multiplies by the
// group's weight scale, sums the groups in float32, and applies the
// row's activation scale and the float32 bias last (dst = sx·Σ + b).
//
// A zero activation row yields exactly b (sx and all quantized lanes
// are 0) — the same semantics the f64 kernel's zero-skip gives padded
// rows. The quantized plane is padded to whole groups with zeros (the
// quantizer zeroes the padding tail on every call, because the scratch
// is shared across layer shapes), matching the pack's padded weight
// rows, so the group loop has no ragged tail. dst must be x.Rows×Out
// and must not alias x. The kernel set is loaded once per call and
// threaded through the row-range function, so a concurrent SetSIMD can
// never mix tiers inside one multiply.
func (d *Dense) InferIntoI8(dst, x *Matrix32, qs *I8Scratch) {
	ks := kernels()
	pk := d.packI8s()
	checkInferShape(dst.Rows, dst.Cols, x.Rows, x.Cols, pk.in, pk.out)
	rows, in, inPad := x.Rows, x.Cols, pk.inPad
	flops := rows * in * pk.out
	q, sx := qs.ensure(rows, inPad)
	for i := 0; i < rows; i++ {
		sx[i] = ks.quant(q[i*inPad:i*inPad+inPad], x.Row(i))
	}
	if p := shardPool(rows, flops); p != nil {
		p.ForEachSpan(rows, func(lo, hi int) {
			inferRowsI8(dst, q, sx, pk, ks, lo, hi)
		})
	} else {
		inferRowsI8(dst, q, sx, pk, ks, 0, rows)
	}
}

// inferRowsI8 computes rows [r0,r1) of the W8A16 GEMM. Blocks of four
// rows share one weight sign-extension sweep; a row computes identical
// bits in the blocked and single-row kernels, so shard boundaries
// (worker count) do not change the result.
func inferRowsI8(dst *Matrix32, q []int16, sx []float32, pk *packI8, ks *kernelSet, r0, r1 int) {
	inPad, out := pk.inPad, pk.out
	i := r0
	for ; i+4 <= r1; i += 4 {
		ks.i8r4(dst.Data[i*out:(i+4)*out], q[i*inPad:(i+4)*inPad], sx[i:i+4], pk.wt, pk.scale, pk.b, out, inPad, out)
	}
	for ; i < r1; i++ {
		ks.i8r(dst.Row(i), q[i*inPad:i*inPad+inPad], pk.wt, pk.scale, pk.b, sx[i])
	}
}

func checkInferShape(dstRows, dstCols, xRows, xCols, in, out int) {
	if xCols != in || dstRows != xRows || dstCols != out {
		panic("nn: reduced-precision infer shape mismatch")
	}
}

// MatMul32Into computes dst = a × b in float32, overwriting dst.
// Saxpy-style with a four-wide k unroll and no zero-skip branches
// (its callers feed it dense softmax/value matrices — this is the
// attention combine, attnW × V). It runs on the calling goroutine: one
// sentence's combine per head is at most MaxLen·MaxLen·headDim
// multiply-adds, below the sharding threshold at every model this repo
// builds. The saxpy walk runs through the dispatched axpy4/axpy1
// kernels, which vectorize along the independent output lanes with the
// identical per-j mul-then-add sequence (no FMA) over the full
// ascending-k 4-unrolled walk: the bits are identical at every SIMD
// level. dst must be a.Rows×b.Cols and must not alias a or b.
func MatMul32Into(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("nn: matmul32 shape mismatch")
	}
	ks := kernels()
	K, bc := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		k := 0
		for ; k+3 < K; k += 4 {
			ks.axpy4(orow, b.Data[k*bc:(k+4)*bc], bc, arow[k:k+4:k+4])
		}
		for ; k < K; k++ {
			ks.axpy1(orow, b.Row(k), arow[k])
		}
	}
}

// MatMulT32Into computes dst = a × bᵀ in float32, overwriting dst.
// b's rows are contiguous, so every dst row is one dotRows32 sweep.
// dst must be a.Rows×b.Rows and must not alias a or b.
func MatMulT32Into(dst, a, b *Matrix32) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("nn: matmulT32 shape mismatch")
	}
	ks := kernels()
	for i := 0; i < a.Rows; i++ {
		ks.dot(dst.Row(i), a.Row(i), b.Data)
	}
}

// ScaledSoftmaxRows32Into writes the row-wise softmax of scale·x into
// dst using the fast exp32 approximation. dst must share x's shape;
// dst == x is allowed. All three passes are vectorized through the
// dispatched kernels: the row-max scan (rowMax — exact, max never
// reassociates), the exp pass (expRow32 — per-element bits identical
// to scalar exp32 at every tier), and the normalize scale (vscale —
// element-wise, exact). Only the normalization sum's accumulation
// order is tier-specific, so results are deterministic within a tier.
func ScaledSoftmaxRows32Into(dst, x *Matrix32, scale float32) {
	x.mustSameShape(dst)
	ks := kernels()
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		if len(row) == 0 {
			continue
		}
		o := dst.Row(i)
		n, max := ks.rowMax(row, scale)
		j0 := n
		if n == 0 {
			max = row[0] * scale
			j0 = 1
		}
		for _, v := range row[j0:] {
			if sv := v * scale; sv > max {
				max = sv
			}
		}
		n, sum := ks.exprow(o, row, scale, max)
		for j := n; j < len(row); j++ {
			e := exp32(row[j]*scale - max)
			o[j] = e
			sum += e
		}
		inv := 1 / sum
		m := ks.vscale(o, inv)
		for j := m; j < len(o); j++ {
			o[j] *= inv
		}
	}
}

// InferResidualInto32 fuses residual add and layer normalization in
// float32: dst = LayerNorm(x + res). Row statistics accumulate in
// float32 — fine at the model's feature widths (≤ a few hundred). All
// three passes run through the dispatched kernels: the residual-add
// sum (lnSum) and variance reduction (lnSq) reassociate per tier
// (analytic-error-bounded, like the GEMM dot products), while the
// normalize/affine pass (lnAffine) is element-wise with the exact
// scalar operation order and therefore bit-identical across tiers for
// identical (mean, inv). All three matrices share one shape; dst must
// not alias x or res.
func (ln *LayerNorm) InferResidualInto32(dst, x, res *Matrix32) {
	x.mustSameShape(res)
	x.mustSameShape(dst)
	ks := kernels()
	pk := ln.pack32s()
	n := float32(x.Cols)
	eps := float32(ln.Eps)
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		rrow := res.Row(i)
		o := dst.Row(i)
		c, mean := ks.lnSum(o, xrow, rrow)
		for j := c; j < len(xrow); j++ {
			s := xrow[j] + rrow[j]
			o[j] = s
			mean += s
		}
		mean /= n
		c, variance := ks.lnSq(o, mean)
		for _, v := range o[c:] {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / float32(math.Sqrt(float64(variance+eps)))
		c = ks.lnAffine(o, mean, inv, pk.gamma, pk.beta)
		for j := c; j < len(o); j++ {
			o[j] = (o[j]-mean)*inv*pk.gamma[j] + pk.beta[j]
		}
	}
}

// InferInto32 applies the tanh-approximated GELU element-wise in
// float32 using the fast tanh32. dst must share x's shape; dst == x
// is allowed.
func (g *GELU) InferInto32(dst, x *Matrix32) {
	x.mustSameShape(dst)
	n := geluVec(dst.Data, x.Data)
	c := float32(geluC)
	for i := n; i < len(x.Data); i++ {
		v := x.Data[i]
		dst.Data[i] = 0.5 * v * (1 + tanh32(c*(v+0.044715*v*v*v)))
	}
}

// exp32 approximates eˣ in float32 to ≈2e-5 relative error: exponent
// extraction in base 2 plus a degree-6 polynomial for 2^f on [0,1),
// recombined through the float32 exponent bits. Inputs below the
// float32 underflow line return 0; inputs above the overflow line are
// clamped (softmax feeds it only x ≤ 0).
func exp32(x float32) float32 {
	if x < -87 {
		return 0
	}
	if x > 88 {
		x = 88
	}
	z := x * 1.4426950408889634 // log₂(e)
	n := int32(z)
	if z < float32(n) {
		n--
	}
	f := z - float32(n) // [0,1)
	// Taylor of 2^f = e^{f·ln2} through degree 6; truncation ≲8e-6 rel.
	p := float32(0.00015403530393381608)
	p = p*f + 0.0013333558146428443
	p = p*f + 0.009618129107628477
	p = p*f + 0.05550410866482158
	p = p*f + 0.2402265069591007
	p = p*f + 0.6931471805599453
	p = p*f + 1
	return p * math.Float32frombits(uint32(n+127)<<23)
}

// tanh32 approximates tanh in float32 via exp32 and the odd-symmetric
// identity tanh(x) = (1−e^{−2x})/(1+e^{−2x}); saturates past |x| ≥ 9
// where tanh is 1 to within float32 resolution.
func tanh32(x float32) float32 {
	if x >= 9 {
		return 1
	}
	if x <= -9 {
		return -1
	}
	neg := x < 0
	if neg {
		x = -x
	}
	e := exp32(-2 * x)
	t := (1 - e) / (1 + e)
	if neg {
		return -t
	}
	return t
}
