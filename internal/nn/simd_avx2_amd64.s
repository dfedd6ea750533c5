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
// quantRowSSE2 widened: 8-wide maxabs scan, 16-wide quantize loop
// (two VCVTPS2DQ round-half-even conversions, VPACKSSDW per-lane pack,
// VPERMQ $0xD8 lane fix), scalar CVTSS2SL tail after VZEROUPPER.
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

// Broadcast constant table for gelu8 — the same float32 bit patterns
// as the SSE2 gelu<> table, widened to 32 bytes per entry.
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
// gelu4SSE2 widened to eight lanes: the identical IEEE operation
// sequence in 3-operand AVX form. Deliberately NO FMA anywhere — the
// contract is bit equality with the scalar
// 0.5·v·(1+tanh32(c·(v+0.044715·v³))) at every lane, and FMA's fused
// rounding would break it. len(x) must be a multiple of 8; dst may
// alias x.
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
