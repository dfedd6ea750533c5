//go:build amd64

#include "textflag.h"

// The 4-lane bodies of the avx2-fma tier (simd_amd64.go): the W8A16
// GEMM and the three softmax passes. They are SSE2-encoded; every
// 8-wide kernel of the tier is in simd_avx2_amd64.s and clears the
// upper YMM state before returning, so mixing the encodings costs no
// transition penalty.

// func i8RowsSSE2(dst []float32, q []int16, wt []int8, scale, b []float32, s float32)
//
// One activation row of the W8A16 GEMM. Per 16-wide group: the int8
// weights are widened to int16 (PUNPCK+PSRAW — SSE2 has no PMOVSXBW),
// two PMADDWD blocks produce pairwise int32 sums, and the four lanes
// are converted to float32 (each lane ≤ 4·32767·127 < 2²⁴, so the
// conversion is exact) and multiplied by the group's broadcast weight
// scale into a packed float accumulator. Per output, one horizontal
// reduction (l0+l2)+(l1+l3), then dst[o] = s·Σ + b[o]. The packed
// accumulation order is IDENTICAL to one row of i8Rows4 so a row
// computes the same bits whether it lands in a 4-row block or the
// tail. len(q) must be a multiple of 16 (caller pads).
TEXT ·i8RowsSSE2(SB), NOSPLIT, $0-124
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), CX
	MOVQ wt_base+48(FP), R8
	MOVQ scale_base+72(FP), R12
	MOVQ b_base+96(FP), R13
	MOVSS s+120(FP), X9
	TESTQ DX, DX
	JZ   i8done
	MOVQ CX, AX
	SHRQ $4, AX // group count

i8outer:
	XORPS X8, X8  // packed float accumulator
	MOVQ  SI, R10 // q cursor (reset per output)
	MOVQ  AX, R9

i8group:
	MOVOU (R8), X4 // 16 int8 weights
	MOVO  X4, X5
	PUNPCKLBW X4, X4
	PSRAW $8, X4   // w[0:8] as int16
	PUNPCKHBW X5, X5
	PSRAW $8, X5   // w[8:16] as int16
	MOVSS (R12), X6
	SHUFPS $0, X6, X6 // group scale, broadcast
	MOVOU (R10), X2
	MOVOU 16(R10), X3
	PMADDWL X4, X2
	PMADDWL X5, X3
	PADDD X3, X2
	CVTPL2PS X2, X2
	MULPS X6, X2
	ADDPS X2, X8
	ADDQ  $32, R10
	ADDQ  $16, R8
	ADDQ  $4, R12
	DECQ  R9
	JNZ   i8group

	PSHUFD $0x4E, X8, X7
	ADDPS  X7, X8
	PSHUFD $0x55, X8, X7
	ADDSS  X7, X8
	MULSS  X9, X8   // × activation scale
	ADDSS  (R13), X8 // + bias
	MOVSS  X8, (DI)
	ADDQ   $4, DI
	ADDQ   $4, R13
	DECQ   DX
	JNZ    i8outer

i8done:
	RET

// func i8Rows4SSE2(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int)
//
// Four activation rows of the W8A16 GEMM in one sweep. The win over
// four i8Rows calls is amortization: each group's weight
// sign-extension and scale broadcast happen once and feed four
// PMADDWD pipelines (one packed-float accumulator per row). dst rows
// sit dstStride elements apart (out contiguous outputs each — equal
// to dstStride for a full-width call, smaller for a column tile), q
// is 4×inPad contiguous, sx holds the four activation scales.
// Per-row arithmetic matches i8RowsSSE2 bit for bit.
TEXT ·i8Rows4SSE2(SB), NOSPLIT, $0-168
	MOVQ dst_base+0(FP), DI
	MOVQ q_base+24(FP), SI
	MOVQ wt_base+72(FP), R8
	MOVQ scale_base+96(FP), R12
	MOVQ b_base+120(FP), R13
	MOVQ out+144(FP), DX
	MOVQ inPad+152(FP), AX
	MOVQ AX, BX
	ADDQ BX, BX          // q row stride in bytes
	LEAQ (BX)(BX*2), CX  // 3× stride for row 3
	SHRQ $4, AX          // group count
	MOVQ dstStride+160(FP), R14
	SHLQ $2, R14         // dst row stride in bytes
	LEAQ (R14)(R14*2), R11
	TESTQ DX, DX
	JZ   b4done

b4outer:
	XORPS X8, X8
	XORPS X9, X9
	XORPS X10, X10
	XORPS X11, X11
	MOVQ  SI, R10
	MOVQ  AX, R9

b4group:
	MOVOU (R8), X4
	MOVO  X4, X5
	PUNPCKLBW X4, X4
	PSRAW $8, X4
	PUNPCKHBW X5, X5
	PSRAW $8, X5
	MOVSS (R12), X6
	SHUFPS $0, X6, X6
	// row 0
	MOVOU (R10), X0
	MOVOU 16(R10), X1
	PMADDWL X4, X0
	PMADDWL X5, X1
	PADDD X1, X0
	CVTPL2PS X0, X0
	MULPS X6, X0
	ADDPS X0, X8
	// row 1
	MOVOU (R10)(BX*1), X0
	MOVOU 16(R10)(BX*1), X1
	PMADDWL X4, X0
	PMADDWL X5, X1
	PADDD X1, X0
	CVTPL2PS X0, X0
	MULPS X6, X0
	ADDPS X0, X9
	// row 2
	MOVOU (R10)(BX*2), X0
	MOVOU 16(R10)(BX*2), X1
	PMADDWL X4, X0
	PMADDWL X5, X1
	PADDD X1, X0
	CVTPL2PS X0, X0
	MULPS X6, X0
	ADDPS X0, X10
	// row 3
	MOVOU (R10)(CX*1), X0
	MOVOU 16(R10)(CX*1), X1
	PMADDWL X4, X0
	PMADDWL X5, X1
	PADDD X1, X0
	CVTPL2PS X0, X0
	MULPS X6, X0
	ADDPS X0, X11
	ADDQ  $32, R10
	ADDQ  $16, R8
	ADDQ  $4, R12
	DECQ  R9
	JNZ   b4group

	// reduce, scale, bias, and store the four outputs (dst stride R14)
	MOVQ  sx_base+48(FP), R9
	MOVSS (R13), X6 // b[o], shared across rows
	PSHUFD $0x4E, X8, X7
	ADDPS  X7, X8
	PSHUFD $0x55, X8, X7
	ADDSS  X7, X8
	MULSS  (R9), X8
	ADDSS  X6, X8
	MOVSS  X8, (DI)
	PSHUFD $0x4E, X9, X7
	ADDPS  X7, X9
	PSHUFD $0x55, X9, X7
	ADDSS  X7, X9
	MULSS  4(R9), X9
	ADDSS  X6, X9
	MOVSS  X9, (DI)(R14*1)
	PSHUFD $0x4E, X10, X7
	ADDPS  X7, X10
	PSHUFD $0x55, X10, X7
	ADDSS  X7, X10
	MULSS  8(R9), X10
	ADDSS  X6, X10
	MOVSS  X10, (DI)(R14*2)
	PSHUFD $0x4E, X11, X7
	ADDPS  X7, X11
	PSHUFD $0x55, X11, X7
	ADDSS  X7, X11
	MULSS  12(R9), X11
	ADDSS  X6, X11
	MOVSS  X11, (DI)(R11*1)
	ADDQ   $4, DI
	ADDQ   $4, R13
	DECQ   DX
	JNZ    b4outer

b4done:
	RET

// Broadcast constant table for expRow4 — the float32 bit patterns of
// the exact constants the scalar exp32 path uses, so the packed lanes
// compute the same IEEE single-precision operation sequence as the
// scalar code.
DATA exp4<>+0x00(SB)/8, $0x8000000080000000 // sign mask
DATA exp4<>+0x08(SB)/8, $0x8000000080000000
DATA exp4<>+0x10(SB)/8, $0x3fb8aa3b3fb8aa3b // log₂(e)
DATA exp4<>+0x18(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA exp4<>+0x20(SB)/8, $0x3921848939218489 // exp32 poly, degree 6 first
DATA exp4<>+0x28(SB)/8, $0x3921848939218489
DATA exp4<>+0x30(SB)/8, $0x3aaec3ff3aaec3ff
DATA exp4<>+0x38(SB)/8, $0x3aaec3ff3aaec3ff
DATA exp4<>+0x40(SB)/8, $0x3c1d955b3c1d955b
DATA exp4<>+0x48(SB)/8, $0x3c1d955b3c1d955b
DATA exp4<>+0x50(SB)/8, $0x3d6358473d635847
DATA exp4<>+0x58(SB)/8, $0x3d6358473d635847
DATA exp4<>+0x60(SB)/8, $0x3e75fdf03e75fdf0
DATA exp4<>+0x68(SB)/8, $0x3e75fdf03e75fdf0
DATA exp4<>+0x70(SB)/8, $0x3f3172183f317218
DATA exp4<>+0x78(SB)/8, $0x3f3172183f317218
DATA exp4<>+0x80(SB)/8, $0x3f8000003f800000 // 1.0
DATA exp4<>+0x88(SB)/8, $0x3f8000003f800000
DATA exp4<>+0x90(SB)/8, $0x0000007f0000007f // exponent bias 127
DATA exp4<>+0x98(SB)/8, $0x0000007f0000007f
DATA exp4<>+0xa0(SB)/8, $0x42ae000042ae0000 // 87.0: |w| beyond this, exp32(w) flushes to zero
DATA exp4<>+0xa8(SB)/8, $0x42ae000042ae0000
GLOBL exp4<>(SB), RODATA|NOPTR, $176

// func expRow4SSE2(dst, x []float32, scale, max float32) float32
//
// dst[i] = exp32(x[i]·scale − max), four lanes at a time, returning
// the sum of the written values. len(x) must be a multiple of 4 and
// the caller guarantees x[i]·scale ≤ max (softmax: w ≤ 0), so the
// overflow clamp of the scalar exp32 can never fire. Per-element bits
// match scalar exp32 exactly: same trunc-and-correct floor, same
// Horner order, no FMA; the w < −87 underflow flush is applied by
// mask. Only the returned sum's accumulation order is vector-specific.
TEXT ·expRow4SSE2(SB), NOSPLIT, $0-60
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVSS scale+48(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS max+52(FP), X9
	SHUFPS $0x00, X9, X9
	XORPS X10, X10          // sum accumulator
	SHRQ $2, DX
	JZ   exdone

exloop:
	MOVUPS (SI), X0
	MULPS  X8, X0           // v·scale
	SUBPS  X9, X0           // w = v·scale − max ≤ 0
	// flush mask: w < −87 ⇔ −w > 87 (positive floats order as ints)
	MOVUPS exp4<>+0x00(SB), X1
	MOVO   X0, X7
	XORPS  X1, X7           // −w
	MOVUPS exp4<>+0xa0(SB), X2
	PCMPGTL X2, X7          // X7 = flush mask
	// z = w·log₂e, n = floor(z), f = z − n (trunc-and-correct, as exp32)
	MOVUPS exp4<>+0x10(SB), X1
	MULPS  X1, X0           // z (w dead)
	CVTTPS2PL X0, X5        // n = trunc(z)
	CVTPL2PS X5, X6         // float(n)
	MOVUPS exp4<>+0x00(SB), X1
	MOVO   X0, X2
	XORPS  X1, X2           // −z
	MOVO   X6, X3
	XORPS  X1, X3           // −float(n)
	PCMPGTL X3, X2          // z < float(n) → truncation rounded up
	PADDL  X2, X5           // n--
	CVTPL2PS X5, X6
	SUBPS  X6, X0           // f = z − n ∈ [0,1)
	// p ≈ 2^f: exp32's degree-6 Horner, multiply and add kept separate
	MOVUPS exp4<>+0x20(SB), X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x30(SB), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x40(SB), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x50(SB), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x60(SB), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x70(SB), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS exp4<>+0x80(SB), X2
	ADDPS  X2, X1           // p
	MOVOU  exp4<>+0x90(SB), X2
	PADDL  X2, X5
	PSLLL  $23, X5          // float bits of 2^n
	MULPS  X5, X1           // e = p·2^n
	PANDN  X1, X7           // flush: ^mask & e
	MOVUPS X7, (DI)
	ADDPS  X7, X10
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   DX
	JNZ    exloop

exdone:
	// fixed-order fold: (l0+l2)+(l1+l3)
	PSHUFD $0x4E, X10, X1
	ADDPS  X1, X10
	PSHUFD $0x55, X10, X1
	ADDSS  X1, X10
	MOVSS  X10, ret+56(FP)
	RET

// func rowMax4SSE2(x []float32, scale float32) float32
//
// Returns max_j x[j]·scale. max never reassociates, so the result is
// exact (finite inputs; MAXPS NaN ordering differs from the scalar
// comparison). len(x) must be a non-zero multiple of 4.
TEXT ·rowMax4SSE2(SB), NOSPLIT, $0-36
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVSS  scale+24(FP), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (SI), X0
	MULPS  X4, X0
	MOVQ   $4, BX

rmloop:
	CMPQ BX, CX
	JGE  rmfold
	MOVUPS (SI)(BX*4), X1
	MULPS  X4, X1
	MAXPS  X1, X0
	ADDQ   $4, BX
	JMP    rmloop

rmfold:
	PSHUFD $0x4E, X0, X1
	MAXPS  X1, X0
	PSHUFD $0x55, X0, X1
	MAXSS  X1, X0
	MOVSS  X0, ret+32(FP)
	RET

// func vscale4SSE2(o []float32, inv float32)
//
// o[j] *= inv in place — element-wise, identical IEEE result to the
// scalar loop. len(o) must be a multiple of 4.
TEXT ·vscale4SSE2(SB), NOSPLIT, $0-28
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVSS  inv+24(FP), X4
	SHUFPS $0x00, X4, X4
	XORQ BX, BX

vsloop:
	CMPQ BX, CX
	JGE  vsdone
	MOVUPS (DI)(BX*4), X0
	MULPS  X4, X0
	MOVUPS X0, (DI)(BX*4)
	ADDQ   $4, BX
	JMP    vsloop

vsdone:
	RET
