package nn

import "math"

// Portable reference bodies for the dispatched inner loops. These
// compile on every architecture: they are the only tier on
// non-amd64, the SIMDGeneric forcing target on amd64, and the
// differential oracle the cross-ISA equivalence tests compare the
// assembly tiers against. The reduced-precision assembly versions may
// differ in the last float32 ulp (different accumulation widths, FMA
// contraction, and quantizer tie rounding) — the contract there is the
// analytic error bound in precision_test.go, not cross-tier bit
// equality. The f64 entries (mm64Ref, mmT64Ref, exp64Ref, gelu64Ref)
// are the exception: every tier reproduces their bits exactly.

// mm64Ref is the f64 GEMM behind MatMulInto, the bias-fused
// Dense.InferInto and the attention combine: dst = a × b (+ bias), over
// strided row-major views — a is m×k with rows lda apart, b is k×n with
// rows ldb apart, dst is m×n with rows ldd apart, and bias (nil for
// none) is one n-vector added to every row. It overwrites dst. The
// walk is k-blocked so each 64-row panel of b is reused across every
// output row, and the k loop is unrolled four-wide: each pass over the
// output row folds in four b rows, quartering the load/store traffic on
// dst. Per output element the additions still happen one at a time in
// ascending-k order from +0 — ((0 + a₀b₀) + a₁b₁) + … — then the bias
// last, so the result matches the naive triple loop followed by a
// separate bias pass bit for bit. Zero a entries are skipped exactly as
// the scalar kernel skips them (the fused pass runs only when all four
// coefficients are nonzero; a mixed group falls back to the per-k
// loop), which keeps one-hot and padded inputs cheap and never folds in
// 0·b terms the scalar kernel would have skipped.
func mm64Ref(dst, a, b, bias []float64, m, n, k, ldd, lda, ldb int) {
	for i := 0; i < m; i++ {
		clear(dst[i*ldd : i*ldd+n])
	}
	for k0 := 0; k0 < k; k0 += matmulBlock {
		k1 := min(k0+matmulBlock, k)
		for i := 0; i < m; i++ {
			arow := a[i*lda : i*lda+k]
			orow := dst[i*ldd : i*ldd+n]
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				av0, av1, av2, av3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					b0 := b[kk*ldb : kk*ldb+n]
					b1 := b[(kk+1)*ldb : (kk+1)*ldb+n]
					b2 := b[(kk+2)*ldb : (kk+2)*ldb+n]
					b3 := b[(kk+3)*ldb : (kk+3)*ldb+n]
					for j, v0 := range b0 {
						s := orow[j] + av0*v0
						s += av1 * b1[j]
						s += av2 * b2[j]
						s += av3 * b3[j]
						orow[j] = s
					}
					continue
				}
				for q := kk; q < kk+4; q++ {
					if av := arow[q]; av != 0 {
						axpy64(orow, b[q*ldb:q*ldb+n], av)
					}
				}
			}
			for ; kk < k1; kk++ {
				if av := arow[kk]; av != 0 {
					axpy64(orow, b[kk*ldb:kk*ldb+n], av)
				}
			}
		}
	}
	if bias != nil {
		for i := 0; i < m; i++ {
			orow := dst[i*ldd : i*ldd+n]
			for j, v := range bias[:n] {
				orow[j] += v
			}
		}
	}
}

// axpy64 is mm64Ref's single-coefficient step: o[j] += av·b[j].
func axpy64(o, b []float64, av float64) {
	for j, bv := range b {
		o[j] += av * bv
	}
}

// mmT64Ref is the f64 GEMM behind MatMulTInto and the attention
// scores: dst = a × bᵀ over strided views — a is m×k (rows lda apart),
// b is n×k (rows ldb apart), dst is m×n (rows ldd apart). Every element
// is Dot(a_i, b_j): ascending k from +0, a multiply then an add, and no
// zero coefficient skipped (0·Inf is NaN here, as in Dot).
func mmT64Ref(dst, a, b []float64, m, n, k, ldd, lda, ldb int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		orow := dst[i*ldd : i*ldd+n]
		for j := range orow {
			orow[j] = Dot(arow, b[j*ldb:j*ldb+k])
		}
	}
}

// exp64Ref is the softmax exp pass over rows of cols elements, each
// against its own max: dst[r·cols+j] = math.Exp(x[r·cols+j]·scale −
// max[r]). dst may alias x.
func exp64Ref(dst, x []float64, cols int, scale float64, max []float64) {
	for p := 0; p < len(x); p += cols {
		m := max[p/cols]
		for j, v := range x[p : p+cols] {
			dst[p+j] = math.Exp(v*scale - m)
		}
	}
}

// dotRows32Ref computes dst[j] = Σ_k a[k]·rows[j·len(a)+k] for every
// j: one activation row against len(dst) contiguous (transposed)
// weight rows. len(rows) must be at least len(dst)·len(a).
func dotRows32Ref(dst, a, rows []float32) {
	in := len(a)
	for j := range dst {
		r := rows[j*in : j*in+in]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+3 < in; i += 4 {
			s0 += a[i] * r[i]
			s1 += a[i+1] * r[i+1]
			s2 += a[i+2] * r[i+2]
			s3 += a[i+3] * r[i+3]
		}
		for ; i < in; i++ {
			s0 += a[i] * r[i]
		}
		dst[j] = (s0 + s1) + (s2 + s3)
	}
}

// quantRowRef quantizes one activation row to symmetric int16 in q
// (round half away from zero), zeroes the q[len(x):] padding tail,
// and returns the dequantization scale maxabs/32767 (0 for an
// all-zero row).
func quantRowRef(q []int16, x []float32) float32 {
	var maxabs float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > maxabs {
			maxabs = v
		}
	}
	if maxabs == 0 {
		for j := range q {
			q[j] = 0
		}
		return 0
	}
	inv := 32767 / maxabs
	for j, v := range x {
		r := v * inv
		if r >= 0 {
			q[j] = int16(int32(r + 0.5))
		} else {
			q[j] = int16(int32(r - 0.5))
		}
	}
	for j := len(x); j < len(q); j++ {
		q[j] = 0
	}
	return maxabs / 32767
}

// i8RowsRef computes one activation row of the W8A16 GEMM:
// dst[o] = s · Σ_g (Σ_{i∈g} q[i]·wt[o·inPad+i]) · scale[o·nb+g] + b[o],
// with len(q) a whole number of i8Group-wide groups (zero-padded by
// the caller). Each group's integer dot is exact in int32: products
// are ≤ 32767·127 and i8Group of them stay far below 2³¹.
func i8RowsRef(dst []float32, q []int16, wt []int8, scale, b []float32, s float32) {
	in := len(q)
	nb := in / i8Group
	for o := range dst {
		wrow := wt[o*in : o*in+in]
		ws := scale[o*nb : o*nb+nb]
		var acc float32
		for g := 0; g < nb; g++ {
			lo := g * i8Group
			var p0, p1, p2, p3 int32
			for i := lo; i < lo+i8Group; i += 4 {
				p0 += int32(q[i]) * int32(wrow[i])
				p1 += int32(q[i+1]) * int32(wrow[i+1])
				p2 += int32(q[i+2]) * int32(wrow[i+2])
				p3 += int32(q[i+3]) * int32(wrow[i+3])
			}
			acc += float32((p0+p1)+(p2+p3)) * ws[g]
		}
		dst[o] = s*acc + b[o]
	}
}

// i8Rows4Ref is i8RowsRef over four activation rows whose outputs sit
// dstStride apart. The portable body delegates row by row — the
// blocking only pays on architectures where the assembly shares the
// weight sign-extension across rows — so per-row bits trivially match
// the single-row kernel.
func i8Rows4Ref(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int) {
	for r := 0; r < 4; r++ {
		i8RowsRef(dst[r*dstStride:r*dstStride+out], q[r*inPad:(r+1)*inPad], wt, scale, b, sx[r])
	}
}

// geluVecRef is the reference tier's vectorized-GELU hook; no vector
// body, so the caller's scalar loop covers everything.
func geluVecRef(dst, x []float32) int {
	return 0
}

// expRowRef is the reference tier's softmax-exp hook; covering nothing
// keeps the generic tier's softmax on the historical scalar path.
func expRowRef(dst, x []float32, scale, max float32) (int, float32) {
	return 0, 0
}

// axpy4Ref accumulates four saxpy rows into dst:
// dst[j] += av[0]·b[j] + av[1]·b[stride+j] + av[2]·b[2·stride+j] +
// av[3]·b[3·stride+j], mul-then-add in ascending row order. This IS
// the attention-combine inner loop — the assembly tiers vectorize
// along the independent j lanes with the identical per-j operation
// sequence (no FMA), so every tier produces these exact bits. stride
// is in elements; len(b) must cover 3·stride+len(dst); len(av) ≥ 4.
func axpy4Ref(dst, b []float32, stride int, av []float32) {
	b0 := b
	b1 := b[stride:]
	b2 := b[2*stride:]
	b3 := b[3*stride:]
	av0, av1, av2, av3 := av[0], av[1], av[2], av[3]
	for j := range dst {
		s := dst[j] + av0*b0[j]
		s += av1 * b1[j]
		s += av2 * b2[j]
		s += av3 * b3[j]
		dst[j] = s
	}
}

// axpy1Ref accumulates one saxpy row: dst[j] += av·b[j] (the k-tail of
// the attention combine). Bit-identical across tiers like axpy4Ref.
func axpy1Ref(dst, b []float32, av float32) {
	for j := range dst {
		dst[j] += av * b[j]
	}
}

// lnSumRef is the reference tier's residual-add-and-sum hook; covering
// nothing keeps the generic layer norm on the historical scalar path.
func lnSumRef(o, x, res []float32) (int, float32) {
	return 0, 0
}

// lnSqRef is the reference tier's variance-reduction hook.
func lnSqRef(o []float32, mean float32) (int, float32) {
	return 0, 0
}

// lnAffineRef is the reference tier's normalize-and-affine hook.
func lnAffineRef(o []float32, mean, inv float32, gamma, beta []float32) int {
	return 0
}

// rowMaxRef is the reference tier's softmax row-max hook.
func rowMaxRef(x []float32, scale float32) (int, float32) {
	return 0, 0
}

// vscaleRef is the reference tier's in-place row-scale hook.
func vscaleRef(o []float32, inv float32) int {
	return 0
}

// gelu64Ref applies the tanh-approximated GELU element-wise:
// dst[i] = 0.5·x[i]·(1 + tanh(c·(x[i] + 0.044715·x[i]³))). dst may
// alias x (each element is read before it is written).
func gelu64Ref(dst, x []float64) {
	for i, v := range x {
		dst[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
}
