//go:build amd64

#include "textflag.h"

// AVX2/FMA kernel tier. Only dispatched when cpu_amd64.go verified
// AVX2 + FMA + OS-enabled YMM state, so every body here may use VEX.256
// and FMA freely — except gelu8AVX2, whose contract is bit equality
// with the scalar GELU and therefore keeps multiply and add separate.
// Every routine that touches a Y register executes VZEROUPPER before
// returning (or before falling into a legacy-SSE scalar tail, whose
// XMM results survive the upper-half clear).

// 32767.0 in float32 — the symmetric int16 activation range.
DATA qc32767<>+0(SB)/4, $0x46fffe00
GLOBL qc32767<>(SB), RODATA|NOPTR, $4

// func dotRows32AVX2(dst, a, rows []float32)
//
// dst[j] = Σ_k a[k]·rows[j·len(a)+k]. Two 8-wide FMA accumulators (Y0
// lanes carry k≡0..7 (mod 16), Y1 lanes k≡8..15), an 8-block and a
// 4-block tail, scalar FMA remainder, then a fixed horizontal
// reduction: fold Y1 into Y0, fold the upper 128 bits, then
// (l0+l2)+(l1+l3). The upper halves are folded BEFORE any 128-bit op
// touches the accumulator — VEX.128 writes zero bits 255:128.
TEXT ·dotRows32AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ rows_base+48(FP), R8
	TESTQ DX, DX
	JZ   adrdone

adrouter:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R10 // a cursor
	MOVQ   R8, R11 // weight-row cursor
	MOVQ   CX, R9
	SHRQ   $4, R9  // 16-wide blocks
	JZ     adrtail8

adrloop16:
	VMOVUPS (R10), Y2
	VFMADD231PS (R11), Y2, Y0
	VMOVUPS 32(R10), Y3
	VFMADD231PS 32(R11), Y3, Y1
	ADDQ    $64, R10
	ADDQ    $64, R11
	DECQ    R9
	JNZ     adrloop16

adrtail8:
	TESTQ $8, CX
	JZ    adrfold
	VMOVUPS (R10), Y2
	VFMADD231PS (R11), Y2, Y0
	ADDQ  $32, R10
	ADDQ  $32, R11

adrfold:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X2
	VADDPS X2, X0, X0
	TESTQ  $4, CX
	JZ     adrhsum4
	VMOVUPS (R10), X2
	VFMADD231PS (R11), X2, X0
	ADDQ   $16, R10
	ADDQ   $16, R11

adrhsum4:
	VPSHUFD $0x4E, X0, X2
	VADDPS  X2, X0, X0
	VPSHUFD $0x55, X0, X2
	VADDSS  X2, X0, X0
	MOVQ    CX, R9
	ANDQ    $3, R9
	JZ      adrstore

adrtail1:
	VMOVSS (R10), X2
	VFMADD231SS (R11), X2, X0
	ADDQ   $4, R10
	ADDQ   $4, R11
	DECQ   R9
	JNZ    adrtail1

adrstore:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	LEAQ   (R8)(CX*4), R8 // next weight row
	DECQ   DX
	JNZ    adrouter

adrdone:
	VZEROUPPER
	RET

// func quantRowAVX2(q []int16, x []float32) float32
//
// Symmetric int16 quantization of one activation row: an 8-wide
// maxabs scan, then q = round(x · 32767/maxabs) in a 16-wide loop (two
// VCVTPS2DQ round-half-even conversions, VPACKSSDW per-lane pack,
// VPERMQ $0xD8 lane fix), a scalar CVTSS2SL tail after VZEROUPPER, the
// q[len(x):] padding tail zeroed, and maxabs/32767 returned as the
// row's dequantization scale. A zero row zeroes q and returns 0.
// Same half-even tie rounding as the vector body, so the tier is
// internally consistent; cross-tier bit equality is not the contract.
TEXT ·quantRowAVX2(SB), NOSPLIT, $0-52
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), DX  // padded length
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX // real length
	VPCMPEQD Y7, Y7, Y7
	VPSRLD   $1, Y7, Y7   // 0x7fffffff lanes
	VXORPS   Y0, Y0, Y0   // maxabs accumulator
	MOVQ     SI, R10
	MOVQ     CX, R9
	SHRQ     $3, R9
	JZ       aqmfold

aqmloop:
	VANDPS (R10), Y7, Y1
	VMAXPS Y1, Y0, Y0
	ADDQ   $32, R10
	DECQ   R9
	JNZ    aqmloop

aqmfold:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	MOVQ   CX, R9
	ANDQ   $7, R9
	JZ     aqhmax

aqmtail1:
	VMOVSS (R10), X1
	VANDPS X7, X1, X1
	VMAXSS X1, X0, X0
	ADDQ   $4, R10
	DECQ   R9
	JNZ    aqmtail1

aqhmax:
	VPSHUFD $0x4E, X0, X1
	VMAXPS  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VMAXSS  X1, X0, X0 // low lane = maxabs
	VXORPS  X2, X2, X2
	VUCOMISS X2, X0
	JNE     aqscale
	// zero row: clear the whole padded q, return scale 0
	VZEROUPPER
	MOVQ DX, R9
	SHRQ $3, R9 // len(q) is a whole number of 16-wide groups
	JZ   aqzret

aqzero:
	MOVOU X2, (DI)
	ADDQ  $16, DI
	DECQ  R9
	JNZ   aqzero

aqzret:
	MOVSS X2, ret+48(FP)
	RET

aqscale:
	VMOVSS qc32767<>+0(SB), X3
	VDIVSS X0, X3, X3 // inv = 32767/maxabs
	VBROADCASTSS X3, Y3
	MOVQ   SI, R10
	MOVQ   CX, R9
	SHRQ   $4, R9
	JZ     aqvtail

aq16:
	VMULPS (R10), Y3, Y1
	VCVTPS2DQ Y1, Y1
	VMULPS 32(R10), Y3, Y2
	VCVTPS2DQ Y2, Y2
	VPACKSSDW Y2, Y1, Y1 // per-lane: [x0..3 | x8..11 | x4..7 | x12..15]
	VPERMQ $0xD8, Y1, Y1 // memory order restored
	VMOVDQU Y1, (DI)
	ADDQ   $64, R10
	ADDQ   $32, DI
	DECQ   R9
	JNZ    aq16

aqvtail:
	VZEROUPPER // X0 (maxabs) and X3 (inv) low lanes survive
	MOVQ CX, R9
	ANDQ $15, R9
	JZ   aqpad

aqtail1:
	MOVSS (R10), X1
	MULSS X3, X1
	CVTSS2SL X1, AX
	CMPL  AX, $32767
	JLE   aqclamplo
	MOVL  $32767, AX

aqclamplo:
	CMPL AX, $-32768
	JGE  aqstore
	MOVL $-32768, AX

aqstore:
	MOVW AX, (DI)
	ADDQ $4, R10
	ADDQ $2, DI
	DECQ R9
	JNZ  aqtail1

aqpad:
	MOVQ DX, R9
	SUBQ CX, R9
	JZ   aqret
	XORL AX, AX

aqpadloop:
	MOVW AX, (DI)
	ADDQ $2, DI
	DECQ R9
	JNZ  aqpadloop

aqret:
	DIVSS qc32767<>+0(SB), X0 // sx = maxabs/32767
	MOVSS X0, ret+48(FP)
	RET

// Broadcast constant table for gelu8 — the float32 bit patterns of the
// exact constants the scalar GELU/tanh32/exp32 path uses, 32 bytes per
// entry, so the packed lanes compute the same IEEE single-precision
// operation sequence as the scalar code.
DATA gelu8<>+0x000(SB)/8, $0x3d3727133d372713 // 0.044715
DATA gelu8<>+0x008(SB)/8, $0x3d3727133d372713
DATA gelu8<>+0x010(SB)/8, $0x3d3727133d372713
DATA gelu8<>+0x018(SB)/8, $0x3d3727133d372713
DATA gelu8<>+0x020(SB)/8, $0x3f4c422a3f4c422a // √(2/π)
DATA gelu8<>+0x028(SB)/8, $0x3f4c422a3f4c422a
DATA gelu8<>+0x030(SB)/8, $0x3f4c422a3f4c422a
DATA gelu8<>+0x038(SB)/8, $0x3f4c422a3f4c422a
DATA gelu8<>+0x040(SB)/8, $0x7fffffff7fffffff // |·| mask
DATA gelu8<>+0x048(SB)/8, $0x7fffffff7fffffff
DATA gelu8<>+0x050(SB)/8, $0x7fffffff7fffffff
DATA gelu8<>+0x058(SB)/8, $0x7fffffff7fffffff
DATA gelu8<>+0x060(SB)/8, $0x8000000080000000 // sign mask
DATA gelu8<>+0x068(SB)/8, $0x8000000080000000
DATA gelu8<>+0x070(SB)/8, $0x8000000080000000
DATA gelu8<>+0x078(SB)/8, $0x8000000080000000
DATA gelu8<>+0x080(SB)/8, $0xc0000000c0000000 // -2.0
DATA gelu8<>+0x088(SB)/8, $0xc0000000c0000000
DATA gelu8<>+0x090(SB)/8, $0xc0000000c0000000
DATA gelu8<>+0x098(SB)/8, $0xc0000000c0000000
DATA gelu8<>+0x0a0(SB)/8, $0x3fb8aa3b3fb8aa3b // log₂(e)
DATA gelu8<>+0x0a8(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA gelu8<>+0x0b0(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA gelu8<>+0x0b8(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA gelu8<>+0x0c0(SB)/8, $0x3921848939218489 // exp32 poly, degree 6 first
DATA gelu8<>+0x0c8(SB)/8, $0x3921848939218489
DATA gelu8<>+0x0d0(SB)/8, $0x3921848939218489
DATA gelu8<>+0x0d8(SB)/8, $0x3921848939218489
DATA gelu8<>+0x0e0(SB)/8, $0x3aaec3ff3aaec3ff
DATA gelu8<>+0x0e8(SB)/8, $0x3aaec3ff3aaec3ff
DATA gelu8<>+0x0f0(SB)/8, $0x3aaec3ff3aaec3ff
DATA gelu8<>+0x0f8(SB)/8, $0x3aaec3ff3aaec3ff
DATA gelu8<>+0x100(SB)/8, $0x3c1d955b3c1d955b
DATA gelu8<>+0x108(SB)/8, $0x3c1d955b3c1d955b
DATA gelu8<>+0x110(SB)/8, $0x3c1d955b3c1d955b
DATA gelu8<>+0x118(SB)/8, $0x3c1d955b3c1d955b
DATA gelu8<>+0x120(SB)/8, $0x3d6358473d635847
DATA gelu8<>+0x128(SB)/8, $0x3d6358473d635847
DATA gelu8<>+0x130(SB)/8, $0x3d6358473d635847
DATA gelu8<>+0x138(SB)/8, $0x3d6358473d635847
DATA gelu8<>+0x140(SB)/8, $0x3e75fdf03e75fdf0
DATA gelu8<>+0x148(SB)/8, $0x3e75fdf03e75fdf0
DATA gelu8<>+0x150(SB)/8, $0x3e75fdf03e75fdf0
DATA gelu8<>+0x158(SB)/8, $0x3e75fdf03e75fdf0
DATA gelu8<>+0x160(SB)/8, $0x3f3172183f317218
DATA gelu8<>+0x168(SB)/8, $0x3f3172183f317218
DATA gelu8<>+0x170(SB)/8, $0x3f3172183f317218
DATA gelu8<>+0x178(SB)/8, $0x3f3172183f317218
DATA gelu8<>+0x180(SB)/8, $0x3f8000003f800000 // 1.0
DATA gelu8<>+0x188(SB)/8, $0x3f8000003f800000
DATA gelu8<>+0x190(SB)/8, $0x3f8000003f800000
DATA gelu8<>+0x198(SB)/8, $0x3f8000003f800000
DATA gelu8<>+0x1a0(SB)/8, $0x3f0000003f000000 // 0.5
DATA gelu8<>+0x1a8(SB)/8, $0x3f0000003f000000
DATA gelu8<>+0x1b0(SB)/8, $0x3f0000003f000000
DATA gelu8<>+0x1b8(SB)/8, $0x3f0000003f000000
DATA gelu8<>+0x1c0(SB)/8, $0x410fffff410fffff // bits(9.0)−1, for a≥9 as ints
DATA gelu8<>+0x1c8(SB)/8, $0x410fffff410fffff
DATA gelu8<>+0x1d0(SB)/8, $0x410fffff410fffff
DATA gelu8<>+0x1d8(SB)/8, $0x410fffff410fffff
DATA gelu8<>+0x1e0(SB)/8, $0x0000007f0000007f // exponent bias 127
DATA gelu8<>+0x1e8(SB)/8, $0x0000007f0000007f
DATA gelu8<>+0x1f0(SB)/8, $0x0000007f0000007f
DATA gelu8<>+0x1f8(SB)/8, $0x0000007f0000007f
GLOBL gelu8<>(SB), RODATA|NOPTR, $512

// func gelu8AVX2(dst, x []float32)
//
// Tanh-approximated GELU over eight lanes at a time, replicating the
// scalar 0.5·v·(1+tanh32(c·(v+0.044715·v³))) operation-for-operation
// in packed IEEE single arithmetic: exp32's exponent/polynomial split
// runs packed (floor via truncate-and-adjust — the z<n compare maps to
// a signed-int compare of the negated floats, both ≥0 since the tanh
// argument is ≤0), and the |x|≥9 saturation lanes are blended to ±1,
// which also discards the garbage lanes where 2^n under/overflows.
// Deliberately NO FMA anywhere — the contract is bit equality with the
// scalar formula at every lane, and FMA's fused rounding would break
// it. len(x) must be a multiple of 8; dst may alias x.
TEXT ·gelu8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	SHRQ $3, DX
	JZ   g8done

g8loop:
	VMOVUPS (SI), Y0                    // v
	VMULPS  gelu8<>+0x000(SB), Y0, Y1
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y1, Y1                  // 0.044715·v³ (left-assoc like the scalar code)
	VADDPS  Y0, Y1, Y1
	VMULPS  gelu8<>+0x020(SB), Y1, Y1   // x = c·(v + 0.044715·v³)
	VANDPS  gelu8<>+0x060(SB), Y1, Y3   // Y3 = sign bits of x
	VANDPS  gelu8<>+0x040(SB), Y1, Y1   // Y1 = a = |x|
	VPCMPGTD gelu8<>+0x1c0(SB), Y1, Y2  // Y2 = saturation mask (a ≥ 9)
	// e = exp32(-2a)
	VMULPS  gelu8<>+0x080(SB), Y1, Y4   // -2a
	VMULPS  gelu8<>+0x0a0(SB), Y4, Y4   // z = -2a·log₂e  (≤ 0)
	VCVTTPS2DQ Y4, Y5                   // n = trunc(z)
	VCVTDQ2PS Y5, Y6                    // float(n)
	VXORPS  gelu8<>+0x060(SB), Y4, Y7   // -z
	VXORPS  gelu8<>+0x060(SB), Y6, Y1   // -float(n)
	VPCMPGTD Y1, Y7, Y7                 // z < float(n) → need floor correction
	VPADDD  Y7, Y5, Y5                  // n-- where truncation rounded up
	VCVTDQ2PS Y5, Y6
	VSUBPS  Y6, Y4, Y4                  // f = z - n ∈ [0,1)
	VMOVUPS gelu8<>+0x0c0(SB), Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x0e0(SB), Y7, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x100(SB), Y7, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x120(SB), Y7, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x140(SB), Y7, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x160(SB), Y7, Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  gelu8<>+0x180(SB), Y7, Y7   // p ≈ 2^f
	VPADDD  gelu8<>+0x1e0(SB), Y5, Y5
	VPSLLD  $23, Y5, Y5                 // float bits of 2^n
	VMULPS  Y5, Y7, Y7                  // e = p·2^n
	// t = (1-e)/(1+e), then restore sign
	VMOVUPS gelu8<>+0x180(SB), Y1       // 1.0
	VSUBPS  Y7, Y1, Y4
	VADDPS  Y7, Y1, Y1
	VDIVPS  Y1, Y4, Y4
	VXORPS  Y3, Y4, Y4                  // t, signed
	// saturated lanes → ±1
	VXORPS  gelu8<>+0x180(SB), Y3, Y1   // ±1
	VPAND   Y2, Y1, Y1
	VPANDN  Y4, Y2, Y2
	VPOR    Y1, Y2, Y2                  // t, saturation applied
	// gelu = (0.5·v)·(1+t)
	VMULPS  gelu8<>+0x1a0(SB), Y0, Y1
	VADDPS  gelu8<>+0x180(SB), Y2, Y4
	VMULPS  Y4, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     g8loop

g8done:
	VZEROUPPER
	RET

// func axpy4AVX2(dst, b []float32, stride int, av []float32)
//
// 8-wide saxpy over four rows — deliberately VMULPS+VADDPS, no FMA:
// the contract is bit equality with the scalar mul-then-add walk at
// every tier. 4-wide (VEX.128) and scalar (VEX) tails inside the
// kernel keep the identical per-lane operation order.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8 // stride in bytes
	MOVQ av_base+56(FP), AX
	VBROADCASTSS 0(AX), Y4
	VBROADCASTSS 4(AX), Y5
	VBROADCASTSS 8(AX), Y6
	VBROADCASTSS 12(AX), Y7
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX

vax4vec8:
	CMPQ BX, DX
	JGE  vax4vec4
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  (SI)(BX*4), Y4, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(BX*4), Y5, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R10)(BX*4), Y6, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R11)(BX*4), Y7, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     vax4vec8

vax4vec4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE  vax4tail
	VMOVUPS (DI)(BX*4), X0
	VMULPS  (SI)(BX*4), X4, X1
	VADDPS  X1, X0, X0
	VMULPS  (R9)(BX*4), X5, X1
	VADDPS  X1, X0, X0
	VMULPS  (R10)(BX*4), X6, X1
	VADDPS  X1, X0, X0
	VMULPS  (R11)(BX*4), X7, X1
	VADDPS  X1, X0, X0
	VMOVUPS X0, (DI)(BX*4)
	ADDQ    $4, BX

vax4tail:
	CMPQ BX, CX
	JGE  vax4done
	VMOVSS (DI)(BX*4), X0
	VMULSS (SI)(BX*4), X4, X1
	VADDSS X1, X0, X0
	VMULSS (R9)(BX*4), X5, X1
	VADDSS X1, X0, X0
	VMULSS (R10)(BX*4), X6, X1
	VADDSS X1, X0, X0
	VMULSS (R11)(BX*4), X7, X1
	VADDSS X1, X0, X0
	VMOVSS X0, (DI)(BX*4)
	INCQ   BX
	JMP    vax4tail

vax4done:
	VZEROUPPER
	RET

// func axpy1AVX2(dst, b []float32, av float32)
//
// 8-wide single-row saxpy, no FMA, 4-wide + scalar tails inside.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSS av+48(FP), Y4
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX

vax1vec8:
	CMPQ BX, DX
	JGE  vax1vec4
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  (SI)(BX*4), Y4, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     vax1vec8

vax1vec4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE  vax1tail
	VMOVUPS (DI)(BX*4), X0
	VMULPS  (SI)(BX*4), X4, X1
	VADDPS  X1, X0, X0
	VMOVUPS X0, (DI)(BX*4)
	ADDQ    $4, BX

vax1tail:
	CMPQ BX, CX
	JGE  vax1done
	VMOVSS (DI)(BX*4), X0
	VMULSS (SI)(BX*4), X4, X1
	VADDSS X1, X0, X0
	VMOVSS X0, (DI)(BX*4)
	INCQ   BX
	JMP    vax1tail

vax1done:
	VZEROUPPER
	RET

// func lnSum8AVX2(o, x, res []float32) float32
//
// o[j] = x[j] + res[j], returning Σ o[j]: 8-lane accumulator, upper
// half folded first, then the (l0+l2)+(l1+l3) pairing. len(o) must be
// a multiple of 8.
TEXT ·lnSum8AVX2(SB), NOSPLIT, $0-76
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ res_base+48(FP), DX
	VXORPS Y0, Y0, Y0
	XORQ   BX, BX

vlnsloop:
	CMPQ BX, CX
	JGE  vlnsfold
	VMOVUPS (SI)(BX*4), Y1
	VADDPS  (DX)(BX*4), Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	VADDPS  Y1, Y0, Y0
	ADDQ    $8, BX
	JMP     vlnsloop

vlnsfold:
	VEXTRACTF128 $1, Y0, X1
	VADDPS  X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VADDPS  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VADDSS  X1, X0, X0
	VMOVSS  X0, ret+72(FP)
	VZEROUPPER
	RET

// func lnSq8AVX2(o []float32, mean float32) float32
//
// Returns Σ (o[j]−mean)², 8-lane accumulator, fold as lnSum8AVX2.
// len(o) must be a multiple of 8.
TEXT ·lnSq8AVX2(SB), NOSPLIT, $0-36
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	VBROADCASTSS mean+24(FP), Y4
	VXORPS Y0, Y0, Y0
	XORQ   BX, BX

vlnqloop:
	CMPQ BX, CX
	JGE  vlnqfold
	VMOVUPS (DI)(BX*4), Y1
	VSUBPS  Y4, Y1, Y1
	VMULPS  Y1, Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ    $8, BX
	JMP     vlnqloop

vlnqfold:
	VEXTRACTF128 $1, Y0, X1
	VADDPS  X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VADDPS  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VADDSS  X1, X0, X0
	VMOVSS  X0, ret+32(FP)
	VZEROUPPER
	RET

// func lnAffine8AVX2(o []float32, mean, inv float32, gamma, beta []float32)
//
// o[j] = ((o[j]−mean)·inv)·gamma[j] + beta[j], no FMA — bit-identical
// to the scalar order. len(o) must be a multiple of 8.
TEXT ·lnAffine8AVX2(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	VBROADCASTSS mean+24(FP), Y4
	VBROADCASTSS inv+28(FP), Y5
	MOVQ gamma_base+32(FP), SI
	MOVQ beta_base+56(FP), DX
	XORQ BX, BX

vlnaloop:
	CMPQ BX, CX
	JGE  vlnadone
	VMOVUPS (DI)(BX*4), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMULPS  (SI)(BX*4), Y0, Y0
	VADDPS  (DX)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     vlnaloop

vlnadone:
	VZEROUPPER
	RET

// The exact f64 tier. Every body below keeps every bit of its
// reference (kernels_ref.go): the GEMM is mul-then-add per lane, and
// the exp passes fuse exactly where math.Exp's FMA path fuses and
// nowhere else.

// MM64LD/MM64ST move one YMM accumulator between the output row tile
// at (DI)(R10) and a register; MM64Z starts one at +0; MM64B adds the
// bias tile at (AX)(R10) to one; MM64MA folds the broadcast coefficient
// Y12 times the b row at (R13) into one accumulator, product then sum.
#define MM64LD(off, acc) VMOVUPD off(DI)(R10*1), acc
#define MM64ST(off, acc) VMOVUPD acc, off(DI)(R10*1)
#define MM64Z(acc) VXORPD acc, acc, acc
#define MM64B(off, acc) VADDPD off(AX)(R10*1), acc, acc
#define MM64MA(off, acc) VMULPD off(R13), Y12, Y13; VADDPD Y13, acc, acc

// MM64K opens a tile's k walk: R14 walks the a row, R13 the b column
// tile, R12 counts k down. MM64SKIP jumps to the tile's step label when
// a[k] is +0 or −0 (shifting out the sign leaves zero) and keep (R15)
// is 0; a nonzero keep ORs in a set bit, so every term is folded in.
// NaN is never skipped.
#define MM64K MOVQ SI, R14; LEAQ (DX)(R10*1), R13; MOVQ CX, R12
#define MM64SKIP(step) MOVQ (R14), AX; SHLQ $1, AX; ORQ R15, AX; JZ step
#define MM64STEP ADDQ $8, R14; ADDQ R11, R13; DECQ R12

// Store masks for the column tail: entry r−1 keeps the low r of four
// lanes.
DATA mm64mask<>+0x00(SB)/8, $-1
DATA mm64mask<>+0x08(SB)/8, $0
DATA mm64mask<>+0x10(SB)/8, $0
DATA mm64mask<>+0x18(SB)/8, $0
DATA mm64mask<>+0x20(SB)/8, $-1
DATA mm64mask<>+0x28(SB)/8, $-1
DATA mm64mask<>+0x30(SB)/8, $0
DATA mm64mask<>+0x38(SB)/8, $0
DATA mm64mask<>+0x40(SB)/8, $-1
DATA mm64mask<>+0x48(SB)/8, $-1
DATA mm64mask<>+0x50(SB)/8, $-1
DATA mm64mask<>+0x58(SB)/8, $0
GLOBL mm64mask<>(SB), RODATA|NOPTR, $96

// func mm64PanelAVX2(o, a, b, bias []float64, rows, kn, n, ldo, lda, ldb, keep, flags int)
//
// o += a × b over one k panel for rows consecutive output rows: o holds
// them ldo apart, a holds them lda apart (the panel's kn coefficients
// first in each), and b holds the panel's kn rows of n, ldb apart. Each
// row stays in YMM accumulators across the whole panel, in column tiles
// of 48, 24, 12 and 4 lanes plus one masked tile for the last 1–3
// columns (VMASKMOVPD: lanes past n are neither read nor written); per k a ±0 coefficient
// is skipped unless keep is nonzero, and otherwise every lane takes one
// VMULPD then one VADDPD — the references' per-lane sequence, so the
// bits are theirs. flags: 1 starts the accumulators at +0 instead of
// loading o; 2 adds bias[j] to each lane before the store. rows, kn and
// n must be positive.
//
// DI/SI: the current o and a rows; DX: b; CX: kn; R8: ldo·8; R9: lda·8;
// R10: the column tile's byte offset; R11: ldb·8; R15: keep.
TEXT ·mm64PanelAVX2(SB), NOSPLIT, $0-160
	MOVQ o_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+96(FP), BX
	MOVQ kn+104(FP), CX
	MOVQ ldb+136(FP), R11
	MOVQ ldo+120(FP), R8
	MOVQ lda+128(FP), R9
	MOVQ keep+144(FP), R15
	SHLQ $3, R11
	SHLQ $3, R8
	SHLQ $3, R9

mmrow:
	XORQ R10, R10

mmt48:
	LEAQ 384(R10), AX
	SHRQ $3, AX
	CMPQ AX, n+112(FP)
	JGT  mmt24
	TESTQ $1, flags+152(FP)
	JNZ   mmz48
	MM64LD(0, Y0); MM64LD(32, Y1); MM64LD(64, Y2); MM64LD(96, Y3)
	MM64LD(128, Y4); MM64LD(160, Y5); MM64LD(192, Y6); MM64LD(224, Y7)
	MM64LD(256, Y8); MM64LD(288, Y9); MM64LD(320, Y10); MM64LD(352, Y11)
	JMP mmo48

mmz48:
	MM64Z(Y0); MM64Z(Y1); MM64Z(Y2); MM64Z(Y3); MM64Z(Y4); MM64Z(Y5)
	MM64Z(Y6); MM64Z(Y7); MM64Z(Y8); MM64Z(Y9); MM64Z(Y10); MM64Z(Y11)

mmo48:
	MM64K

mmk48:
	MM64SKIP(mms48)
	VBROADCASTSD (R14), Y12
	MM64MA(0, Y0); MM64MA(32, Y1); MM64MA(64, Y2); MM64MA(96, Y3)
	MM64MA(128, Y4); MM64MA(160, Y5); MM64MA(192, Y6); MM64MA(224, Y7)
	MM64MA(256, Y8); MM64MA(288, Y9); MM64MA(320, Y10); MM64MA(352, Y11)

mms48:
	MM64STEP
	JNZ mmk48
	TESTQ $2, flags+152(FP)
	JZ    mmw48
	MOVQ  bias_base+72(FP), AX
	MM64B(0, Y0); MM64B(32, Y1); MM64B(64, Y2); MM64B(96, Y3)
	MM64B(128, Y4); MM64B(160, Y5); MM64B(192, Y6); MM64B(224, Y7)
	MM64B(256, Y8); MM64B(288, Y9); MM64B(320, Y10); MM64B(352, Y11)

mmw48:
	MM64ST(0, Y0); MM64ST(32, Y1); MM64ST(64, Y2); MM64ST(96, Y3)
	MM64ST(128, Y4); MM64ST(160, Y5); MM64ST(192, Y6); MM64ST(224, Y7)
	MM64ST(256, Y8); MM64ST(288, Y9); MM64ST(320, Y10); MM64ST(352, Y11)
	ADDQ $384, R10
	JMP  mmt48

mmt24:
	LEAQ 192(R10), AX
	SHRQ $3, AX
	CMPQ AX, n+112(FP)
	JGT  mmt12
	TESTQ $1, flags+152(FP)
	JNZ   mmz24
	MM64LD(0, Y0); MM64LD(32, Y1); MM64LD(64, Y2)
	MM64LD(96, Y3); MM64LD(128, Y4); MM64LD(160, Y5)
	JMP mmo24

mmz24:
	MM64Z(Y0); MM64Z(Y1); MM64Z(Y2); MM64Z(Y3); MM64Z(Y4); MM64Z(Y5)

mmo24:
	MM64K

mmk24:
	MM64SKIP(mms24)
	VBROADCASTSD (R14), Y12
	MM64MA(0, Y0); MM64MA(32, Y1); MM64MA(64, Y2)
	MM64MA(96, Y3); MM64MA(128, Y4); MM64MA(160, Y5)

mms24:
	MM64STEP
	JNZ mmk24
	TESTQ $2, flags+152(FP)
	JZ    mmw24
	MOVQ  bias_base+72(FP), AX
	MM64B(0, Y0); MM64B(32, Y1); MM64B(64, Y2)
	MM64B(96, Y3); MM64B(128, Y4); MM64B(160, Y5)

mmw24:
	MM64ST(0, Y0); MM64ST(32, Y1); MM64ST(64, Y2)
	MM64ST(96, Y3); MM64ST(128, Y4); MM64ST(160, Y5)
	ADDQ $192, R10

mmt12:
	LEAQ 96(R10), AX
	SHRQ $3, AX
	CMPQ AX, n+112(FP)
	JGT  mmt4
	TESTQ $1, flags+152(FP)
	JNZ   mmz12
	MM64LD(0, Y0); MM64LD(32, Y1); MM64LD(64, Y2)
	JMP mmo12

mmz12:
	MM64Z(Y0); MM64Z(Y1); MM64Z(Y2)

mmo12:
	MM64K

mmk12:
	MM64SKIP(mms12)
	VBROADCASTSD (R14), Y12
	MM64MA(0, Y0); MM64MA(32, Y1); MM64MA(64, Y2)

mms12:
	MM64STEP
	JNZ mmk12
	TESTQ $2, flags+152(FP)
	JZ    mmw12
	MOVQ  bias_base+72(FP), AX
	MM64B(0, Y0); MM64B(32, Y1); MM64B(64, Y2)

mmw12:
	MM64ST(0, Y0); MM64ST(32, Y1); MM64ST(64, Y2)
	ADDQ $96, R10

mmt4:
	LEAQ 32(R10), AX
	SHRQ $3, AX
	CMPQ AX, n+112(FP)
	JGT  mmt1
	TESTQ $1, flags+152(FP)
	JNZ   mmz4
	MM64LD(0, Y0)
	JMP mmo4

mmz4:
	MM64Z(Y0)

mmo4:
	MM64K

mmk4:
	MM64SKIP(mms4)
	VBROADCASTSD (R14), Y12
	MM64MA(0, Y0)

mms4:
	MM64STEP
	JNZ mmk4
	TESTQ $2, flags+152(FP)
	JZ    mmw4
	MOVQ  bias_base+72(FP), AX
	MM64B(0, Y0)

mmw4:
	MM64ST(0, Y0)
	ADDQ $32, R10
	JMP  mmt4

mmt1:
	MOVQ n+112(FP), AX
	SHLQ $3, AX
	SUBQ R10, AX
	JLE  mmnext
	SHLQ $2, AX
	LEAQ mm64mask<>(SB), R12
	VMOVDQU -32(R12)(AX*1), Y14     // lanes below the 1–3 left
	TESTQ $1, flags+152(FP)
	JNZ   mmz1
	VMASKMOVPD (DI)(R10*1), Y14, Y0
	JMP mmo1

mmz1:
	MM64Z(Y0)

mmo1:
	MM64K

mmk1:
	MM64SKIP(mms1)
	VBROADCASTSD (R14), Y12
	VMASKMOVPD   (R13), Y14, Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y13, Y0, Y0

mms1:
	MM64STEP
	JNZ mmk1
	TESTQ $2, flags+152(FP)
	JZ    mmw1
	MOVQ  bias_base+72(FP), AX
	VMASKMOVPD (AX)(R10*1), Y14, Y13
	VADDPD     Y13, Y0, Y0

mmw1:
	VMASKMOVPD Y0, Y14, (DI)(R10*1)

mmnext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  mmrow
	VZEROUPPER
	RET

// Constants of gelu64x4AVX2, one float64 each (broadcast at use): the
// GELU cubic, math.Tanh's rational coefficients and branch points, and
// math.Exp's (exp_amd64.s) range-reduction and Taylor constants.
DATA gelu64<>+0x00(SB)/8, $0.044715
DATA gelu64<>+0x08(SB)/8, $0.7978845608028654 // sqrt(2/π)
DATA gelu64<>+0x10(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA gelu64<>+0x18(SB)/8, $-9.92877231001918586564e1
DATA gelu64<>+0x20(SB)/8, $-1.61468768441708447952e3
DATA gelu64<>+0x28(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA gelu64<>+0x30(SB)/8, $2.23548839060100448583e3
DATA gelu64<>+0x38(SB)/8, $4.84406305325125486048e3
DATA gelu64<>+0x40(SB)/8, $1.4426950408889634073599246810018920 // log₂e
DATA gelu64<>+0x48(SB)/8, $0.69314718055966295651160180568695068359375 // ln2, upper half
DATA gelu64<>+0x50(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2, lower half
DATA gelu64<>+0x58(SB)/8, $0.0625
DATA gelu64<>+0x60(SB)/8, $2.4801587301587301587e-5 // Taylor, 1/8! … 1/3!
DATA gelu64<>+0x68(SB)/8, $1.9841269841269841270e-4
DATA gelu64<>+0x70(SB)/8, $1.3888888888888888889e-3
DATA gelu64<>+0x78(SB)/8, $8.3333333333333333333e-3
DATA gelu64<>+0x80(SB)/8, $4.1666666666666666667e-2
DATA gelu64<>+0x88(SB)/8, $1.6666666666666666667e-1
DATA gelu64<>+0x90(SB)/8, $0.5
DATA gelu64<>+0x98(SB)/8, $1.0
DATA gelu64<>+0xa0(SB)/8, $2.0
DATA gelu64<>+0xa8(SB)/8, $0.625
DATA gelu64<>+0xb0(SB)/8, $44.014845965556527147994 // 0.5·MAXLOG
DATA gelu64<>+0xb8(SB)/8, $0x8000000000000000 // sign bit
DATA gelu64<>+0xc0(SB)/8, $0x000003ff000003ff // exponent bias 1023, 4 × int32
DATA gelu64<>+0xc8(SB)/8, $0x000003ff000003ff
GLOBL gelu64<>(SB), RODATA|NOPTR, $208

// func gelu64x4AVX2(dst, x []float64)
//
// GELU over four lanes at a time: 0.5·v·(1+tanh(u)) with
// u = c·(v + 0.044715·v³), in gelu64Ref's operation order. tanh runs
// math.Tanh's three branches on every lane and blends them: the
// rational form (|u| < 0.625, u = ±0 returned as is), 1 − 2/(e+1) with
// e = exp(2|u|) and u's sign (|u| ≥ 0.625), and ±1 (|u| > 0.5·MAXLOG,
// ±Inf). NaN fails both compares and stays on the rational form, as in
// the scalar code. exp follows exp_amd64.s's FMA path instruction for
// instruction; on the lanes that reach it 2|u| lies in [1.25, 88.03],
// so none of its special cases (non-finite, overflow, denormal) can
// apply and the integer exponent n is in [2, 127]. The other lanes
// compute garbage there that the blend discards. len(x) must be a
// multiple of 4; dst may alias x.
TEXT ·gelu64x4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	SHRQ $2, DX
	JZ   g64done
	VBROADCASTSD gelu64<>+0xb8(SB), Y13 // sign bit
	VBROADCASTSD gelu64<>+0xa0(SB), Y14 // 2.0
	VBROADCASTSD gelu64<>+0x98(SB), Y15 // 1.0

g64loop:
	VMOVUPD      (SI), Y0                // v
	VBROADCASTSD gelu64<>+0x00(SB), Y1
	VMULPD       Y0, Y1, Y1
	VMULPD       Y0, Y1, Y1
	VMULPD       Y0, Y1, Y1              // 0.044715·v·v·v, left to right
	VADDPD       Y1, Y0, Y1
	VBROADCASTSD gelu64<>+0x08(SB), Y2
	VMULPD       Y1, Y2, Y1              // u
	VANDNPD      Y1, Y13, Y2             // z = |u|

	// Rational branch: u + u·s·P(s)/Q(s), s = u².
	VMULPD       Y1, Y1, Y3              // s
	VBROADCASTSD gelu64<>+0x10(SB), Y4
	VMULPD       Y3, Y4, Y4
	VBROADCASTSD gelu64<>+0x18(SB), Y5
	VADDPD       Y5, Y4, Y4
	VMULPD       Y3, Y4, Y4
	VBROADCASTSD gelu64<>+0x20(SB), Y5
	VADDPD       Y5, Y4, Y4              // (P0·s + P1)·s + P2
	VBROADCASTSD gelu64<>+0x28(SB), Y5
	VADDPD       Y5, Y3, Y5
	VMULPD       Y3, Y5, Y5
	VBROADCASTSD gelu64<>+0x30(SB), Y6
	VADDPD       Y6, Y5, Y5
	VMULPD       Y3, Y5, Y5
	VBROADCASTSD gelu64<>+0x38(SB), Y6
	VADDPD       Y6, Y5, Y5              // ((s + Q0)·s + Q1)·s + Q2
	VMULPD       Y3, Y1, Y6
	VMULPD       Y4, Y6, Y6
	VDIVPD       Y5, Y6, Y6
	VADDPD       Y6, Y1, Y6
	VXORPD       Y7, Y7, Y7
	VCMPPD       $0x00, Y7, Y1, Y7       // u == 0
	VBLENDVPD    Y7, Y1, Y6, Y6          // tanh(±0) = ±0

	// Exp branch: e = exp(2z), as exp_amd64.s computes it.
	VADDPD       Y2, Y2, Y7              // x = 2z
	VBROADCASTSD gelu64<>+0x40(SB), Y8
	VMULPD       Y7, Y8, Y8
	VCVTPD2DQY   Y8, X8                  // n = round(x·log₂e)
	VCVTDQ2PD    X8, Y9
	VBROADCASTSD gelu64<>+0x48(SB), Y10
	VFNMADD231PD Y10, Y9, Y7             // x −= n·ln2hi, fused
	VBROADCASTSD gelu64<>+0x50(SB), Y10
	VFNMADD231PD Y10, Y9, Y7             // x −= n·ln2lo, fused
	VBROADCASTSD gelu64<>+0x58(SB), Y10
	VMULPD       Y10, Y7, Y7             // r = x/16
	VBROADCASTSD gelu64<>+0x60(SB), Y9
	VBROADCASTSD gelu64<>+0x68(SB), Y10
	VFMADD213PD  Y10, Y7, Y9             // p = p·r + c, fused, 1/7! … 1
	VBROADCASTSD gelu64<>+0x70(SB), Y10
	VFMADD213PD  Y10, Y7, Y9
	VBROADCASTSD gelu64<>+0x78(SB), Y10
	VFMADD213PD  Y10, Y7, Y9
	VBROADCASTSD gelu64<>+0x80(SB), Y10
	VFMADD213PD  Y10, Y7, Y9
	VBROADCASTSD gelu64<>+0x88(SB), Y10
	VFMADD213PD  Y10, Y7, Y9
	VBROADCASTSD gelu64<>+0x90(SB), Y10
	VFMADD213PD  Y10, Y7, Y9
	VFMADD213PD  Y15, Y7, Y9
	VMULPD       Y9, Y7, Y7              // r·p
	VADDPD       Y14, Y7, Y9             // squared four times: r·(r+2) …
	VMULPD       Y9, Y7, Y7
	VADDPD       Y14, Y7, Y9
	VMULPD       Y9, Y7, Y7
	VADDPD       Y14, Y7, Y9
	VMULPD       Y9, Y7, Y7
	VADDPD       Y14, Y7, Y9
	VFMADD213PD  Y15, Y9, Y7             // … the last one fused with +1
	VPADDD       gelu64<>+0xc0(SB), X8, X8
	VPMOVZXDQ    X8, Y8
	VPSLLQ       $52, Y8, Y8             // 2ⁿ
	VMULPD       Y8, Y7, Y7              // e

	// tanh = ±(1 − 2/(e+1)); the saturated value is ±1.
	VADDPD       Y15, Y7, Y7
	VDIVPD       Y7, Y14, Y7
	VSUBPD       Y7, Y15, Y7
	VANDPD       Y13, Y1, Y8             // u's sign
	VXORPD       Y8, Y7, Y7
	VORPD        Y15, Y8, Y9             // ±1
	VBROADCASTSD gelu64<>+0xa8(SB), Y10
	VCMPPD       $0x1d, Y10, Y2, Y10     // z ≥ 0.625
	VBLENDVPD    Y10, Y7, Y6, Y6
	VBROADCASTSD gelu64<>+0xb0(SB), Y10
	VCMPPD       $0x1e, Y10, Y2, Y10     // z > 0.5·MAXLOG
	VBLENDVPD    Y10, Y9, Y6, Y6         // t = tanh(u)

	// (0.5·v)·(1 + t)
	VBROADCASTSD gelu64<>+0x90(SB), Y10
	VMULPD       Y10, Y0, Y0
	VADDPD       Y15, Y6, Y6
	VMULPD       Y6, Y0, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         DX
	JNZ          g64loop

g64done:
	VZEROUPPER
	RET

// The softmax exp pass's exponent range: math.Exp's scalar code takes
// its plain path only for 1 ≤ n+1023 ≤ 0x7FE, i.e. n in (−1023, 1024).
DATA exp64<>+0(SB)/4, $-1023
DATA exp64<>+4(SB)/4, $1024
GLOBL exp64<>(SB), RODATA|NOPTR, $8

// EXP64N rounds the argument lanes in Y7 to the integer exponent
// n = round(x·log₂e) in X8, as math.Exp does, and leaves in AX one bit
// per lane whose n is inside the plain path's range (X13 = −1023s,
// X4 = 1024s). EXP64REST finishes e = exp(x) in Y7 from Y7 and X8,
// gelu64x4AVX2's exp branch instruction for instruction: the two fused
// ln2 reductions, x/16, the fused Taylor chain, four squarings (the
// last fused with +1), times 2ⁿ (Y14 = 2.0s, Y15 = 1.0s).
#define EXP64N \
	VBROADCASTSD gelu64<>+0x40(SB), Y8; \
	VMULPD       Y7, Y8, Y8; \
	VCVTPD2DQY   Y8, X8; \
	VPCMPGTD     X13, X8, X1; \
	VPCMPGTD     X8, X4, X2; \
	VPAND        X2, X1, X1; \
	VMOVMSKPS    X1, AX

#define EXP64REST \
	VCVTDQ2PD    X8, Y9; \
	VBROADCASTSD gelu64<>+0x48(SB), Y10; \
	VFNMADD231PD Y10, Y9, Y7; \
	VBROADCASTSD gelu64<>+0x50(SB), Y10; \
	VFNMADD231PD Y10, Y9, Y7; \
	VBROADCASTSD gelu64<>+0x58(SB), Y10; \
	VMULPD       Y10, Y7, Y7; \
	VBROADCASTSD gelu64<>+0x60(SB), Y9; \
	VBROADCASTSD gelu64<>+0x68(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VBROADCASTSD gelu64<>+0x70(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VBROADCASTSD gelu64<>+0x78(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VBROADCASTSD gelu64<>+0x80(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VBROADCASTSD gelu64<>+0x88(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VBROADCASTSD gelu64<>+0x90(SB), Y10; \
	VFMADD213PD  Y10, Y7, Y9; \
	VFMADD213PD  Y15, Y7, Y9; \
	VMULPD       Y9, Y7, Y7; \
	VADDPD       Y14, Y7, Y9; \
	VMULPD       Y9, Y7, Y7; \
	VADDPD       Y14, Y7, Y9; \
	VMULPD       Y9, Y7, Y7; \
	VADDPD       Y14, Y7, Y9; \
	VMULPD       Y9, Y7, Y7; \
	VADDPD       Y14, Y7, Y9; \
	VFMADD213PD  Y15, Y9, Y7; \
	VPADDD       gelu64<>+0xc0(SB), X8, X8; \
	VPMOVZXDQ    X8, Y8; \
	VPSLLQ       $52, Y8, Y8; \
	VMULPD       Y8, Y7, Y7

// func exp64RowsAVX2(dst, x []float64, cols int, scale float64, max []float64) int
//
// dst[r·cols+j] = math.Exp(x[r·cols+j]·scale − max[r]), four lanes at a
// time, in math.Exp's order: the argument is one VMULPD then one
// VSUBPD, and the exp is gelu64x4AVX2's transliteration of
// exp_amd64.s's FMA path. That path is the scalar code's only for an
// integer exponent n with −1023 < n < 1024; NaN and ±Inf arguments
// (which convert to the integer indefinite), overflow, and the denormal
// and underflow branches all fall outside it. So each block first
// checks n on its lanes and stops in front of a block that leaves the
// range, returning how many elements it wrote; the caller finishes that
// row on scalar math.Exp. The last 1–3 elements of a row run as one
// masked block (VMASKMOVPD: lanes past the row are neither read nor
// written, nor checked). Rows run back to back in one call, so the
// out-of-order core overlaps their latency chains. dst may alias x;
// len(x) must be a multiple of cols.
//
// DI/SI: dst and x at the current block; R10: x's end; R11: the
// current row's end; DX: the max walk; CX: elements written.
TEXT ·exp64RowsAVX2(SB), NOSPLIT, $0-96
	MOVQ  dst_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), R10
	MOVQ  cols+48(FP), R12
	MOVQ  max_base+64(FP), DX
	XORQ  CX, CX
	TESTQ R10, R10
	JZ    e64done
	SHLQ  $3, R10
	ADDQ  SI, R10
	SHLQ  $3, R12
	MOVQ  SI, R11
	VBROADCASTSD scale+56(FP), Y11
	VPBROADCASTD exp64<>+0(SB), X13     // −1023
	VPBROADCASTD exp64<>+4(SB), X4      // 1024
	VBROADCASTSD gelu64<>+0xa0(SB), Y14 // 2.0
	VBROADCASTSD gelu64<>+0x98(SB), Y15 // 1.0

e64row:
	CMPQ   SI, R10
	JGE    e64done
	ADDQ   R12, R11
	VBROADCASTSD (DX), Y12
	ADDQ   $8, DX

e64loop:
	MOVQ   R11, BX
	SUBQ   SI, BX
	CMPQ   BX, $32
	JLT    e64tail
	VMOVUPD (SI), Y0
	VMULPD Y11, Y0, Y7
	VSUBPD Y12, Y7, Y7                   // x = v·scale − max
	EXP64N
	CMPQ   AX, $15
	JNE    e64done
	EXP64REST
	VMOVUPD Y7, (DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	ADDQ   $4, CX
	JMP    e64loop

e64tail:
	TESTQ  BX, BX
	JZ     e64row
	MOVQ   BX, R8
	SHLQ   $2, R8
	LEAQ   mm64mask<>(SB), R9
	VMOVDQU -32(R9)(R8*1), Y3            // the 1–3 live lanes
	VMASKMOVPD (SI), Y3, Y0
	VMULPD Y11, Y0, Y7
	VSUBPD Y12, Y7, Y7
	EXP64N
	VMOVMSKPD Y3, R8
	ANDQ   R8, AX
	CMPQ   AX, R8
	JNE    e64done
	EXP64REST
	VMASKMOVPD Y7, Y3, (DI)
	ADDQ   BX, SI
	ADDQ   BX, DI
	SHRQ   $3, BX
	ADDQ   BX, CX
	JMP    e64row

e64done:
	MOVQ CX, ret+88(FP)
	VZEROUPPER
	RET
