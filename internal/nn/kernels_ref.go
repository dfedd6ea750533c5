package nn

// Portable reference bodies for the reduced-precision inner loops.
// These compile on every architecture: they are the only tier on
// non-amd64, the SIMDGeneric forcing target on amd64, and the
// differential oracle the cross-ISA equivalence tests compare the
// assembly tiers against. The assembly versions may differ in the
// last float32 ulp (different accumulation widths, FMA contraction,
// and quantizer tie rounding) — the contract is the analytic error
// bound in precision_test.go, not cross-tier bit equality.

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
