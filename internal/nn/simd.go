package nn

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
)

// Runtime kernel dispatch. The reduced-precision inner loops come in
// up to three ISA tiers per architecture — a portable Go reference
// (kernels_ref.go), the amd64 SSE2 baseline (simd_amd64.s) and 8-wide
// AVX2/FMA assembly (simd_avx2_amd64.s), and the arm64 NEON baseline
// (simd_arm64.s) — selected once at init from CPU feature bits and
// swappable at runtime through SetSIMD. This file owns the level
// namespace and the dispatch machinery; each architecture contributes
// its tiers through the archTiers registry (simd_amd64.go,
// simd_arm64.go, simd_generic.go), so levels parse uniformly on every
// platform and forcing a level the local architecture cannot run is a
// loud error rather than a silent generic fallback.
//
// The active tier lives in an atomic pointer to an immutable
// kernelSet: every GEMM call loads the set once and uses it for the
// whole call, so a concurrent tier switch can never mix kernels within
// one multiply.
//
// Contracts, per tier:
//
//   - Within one tier, a row computes identical bits through the
//     blocked and single-row kernels and at any row-shard geometry.
//   - Across tiers, dot/quant/i8 outputs agree to the analytic error
//     bounds pinned in precision_test.go — cross-ISA bit equality is
//     explicitly NOT promised (FMA contraction, 8- vs 4-lane
//     accumulation, and round-half-even vs half-away quantizer ties
//     all differ).
//   - geluVec's and expRow32's vector prefixes are bit-identical to
//     the scalar formulas at every tier (kernels_test.go), so GELU and
//     softmax-exp results never depend on an element's index modulo
//     the vector width.
//   - The saxpy kernels (axpy4/axpy1, the attention combine), the
//     layer-norm affine pass (lnAffine), the softmax row-max scan
//     (rowMax), and the in-place scale (vscale) are bit-identical to
//     the scalar reference at EVERY tier: they vectorize along
//     independent output lanes with mul-then-add (no FMA) and never
//     split a reduction, or compute an order-insensitive max, so
//     MatMul32Into produces the same bits at any level.
//   - Only the layer-norm mean/variance reductions (lnSum/lnSq) and
//     the softmax exp partial sum reassociate; those are pinned by
//     analytic error bounds per tier (kernels_test.go).

// SIMDLevel identifies one dispatched kernel tier.
type SIMDLevel uint8

const (
	// SIMDGeneric is the portable pure-Go reference tier — the only
	// tier on architectures without assembly kernels, and a forcing
	// target everywhere for differential testing.
	SIMDGeneric SIMDLevel = iota
	// SIMDSSE2 is the amd64 baseline assembly tier (4-wide f32,
	// PMADDWD W8A16). Always available on amd64 (GOAMD64=v1).
	SIMDSSE2
	// SIMDAVX2 is the amd64 8-wide AVX2/FMA tier (the W8A16 GEMM and
	// the softmax passes keep the SSE2 bodies). Requires AVX2+FMA and OS
	// YMM state support.
	SIMDAVX2
	// SIMDNEON is the arm64 baseline assembly tier (4-wide f32 via
	// Advanced SIMD, SMLAL-based W8A16). Always available on arm64 —
	// NEON is part of the aarch64 base ISA.
	SIMDNEON
)

// String returns the level's reporting name, as surfaced in /statusz,
// the ner_kernel_isa gauge, and the bench fingerprint.
func (l SIMDLevel) String() string {
	switch l {
	case SIMDSSE2:
		return "sse2"
	case SIMDAVX2:
		return "avx2-fma"
	case SIMDNEON:
		return "neon"
	default:
		return "generic"
	}
}

// ParseSIMD maps an operator-facing level name (NER_SIMD) to a
// SIMDLevel. "avx2" and the reporting name "avx2-fma" are synonyms.
// Every level name parses on every architecture — forcing a level the
// local architecture cannot run fails later, in SetSIMD or init, with
// an error that names the architecture and its supported levels.
func ParseSIMD(s string) (SIMDLevel, error) {
	switch s {
	case "generic":
		return SIMDGeneric, nil
	case "sse2":
		return SIMDSSE2, nil
	case "avx2", "avx2-fma":
		return SIMDAVX2, nil
	case "neon":
		return SIMDNEON, nil
	}
	return 0, fmt.Errorf("nn: unknown SIMD level %q (want generic, sse2, avx2, or neon)", s)
}

// simdTier is one architecture-contributed kernel tier: a feature
// gate and the overlay that installs its entry points on top of the
// reference set. Per-arch files declare archTiers in ascending level
// order; simd.go derives bestSIMD/simdSupported/newKernelSet from it.
type simdTier struct {
	level     SIMDLevel
	supported func() bool
	apply     func(*kernelSet)
}

func bestSIMD() SIMDLevel {
	best := SIMDGeneric
	for _, t := range archTiers {
		if t.supported() {
			best = t.level
		}
	}
	return best
}

func simdSupported(l SIMDLevel) bool {
	if l == SIMDGeneric {
		return true
	}
	for _, t := range archTiers {
		if t.level == l {
			return t.supported()
		}
	}
	return false
}

func newKernelSet(l SIMDLevel) *kernelSet {
	ks := refKernelSet()
	ks.level = l
	// Apply every supported tier up to and including the requested
	// level, lowest first, so a higher tier inherits the lower tier's
	// kernels for entry points it does not override (AVX2 keeps the
	// SSE2 W8A16 bodies, for example).
	for _, t := range archTiers {
		if t.level <= l && t.supported() {
			t.apply(ks)
		}
	}
	return ks
}

// simdUnsupportedErr explains why a parsed level cannot run here:
// names the architecture and lists what it does support.
func simdUnsupportedErr(l SIMDLevel) error {
	names := make([]string, 0, 4)
	for _, s := range SupportedSIMDLevels() {
		names = append(names, s.String())
	}
	return fmt.Errorf("nn: SIMD level %s is not supported on %s/%s (supported levels: %s)",
		l, runtime.GOOS, runtime.GOARCH, strings.Join(names, ", "))
}

// kernelSet is one immutable, coherent bundle of kernel entry points.
// Callers load it once per GEMM (kernels()) and never observe a
// half-switched tier.
type kernelSet struct {
	level SIMDLevel

	dot    func(dst, a, rows []float32)
	quant  func(q []int16, x []float32) float32
	i8r    func(dst []float32, q []int16, wt []int8, scale, b []float32, s float32)
	i8r4   func(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int)
	gelu   func(dst, x []float32) int
	exprow func(dst, x []float32, scale, max float32) (int, float32)

	// Attention-combine saxpy: dst[j] accumulates av[r]·b_r[j] for four
	// (axpy4) or one (axpy1) activation coefficients, mul-then-add in
	// ascending r order — bit-identical across tiers, tails included.
	axpy4 func(dst, b []float32, stride int, av []float32)
	axpy1 func(dst, b []float32, av float32)
	// Layer-norm passes: lnSum writes o = x + res over a vector-aligned
	// prefix and returns (covered, partial sum); lnSq returns the
	// partial Σ(o[j]−mean)² over a prefix; lnAffine writes
	// o[j] = (o[j]−mean)·inv·gamma[j] + beta[j] over a prefix
	// (bit-identical to the scalar formula at every tier — no FMA).
	// The caller finishes each tail with the scalar loop; the generic
	// tier covers nothing, keeping its historical scalar bits.
	lnSum    func(o, x, res []float32) (int, float32)
	lnSq     func(o []float32, mean float32) (int, float32)
	lnAffine func(o []float32, mean, inv float32, gamma, beta []float32) int
	// Softmax passes: rowMax returns the max of x[j]·scale over a
	// vector-aligned prefix (exact — max never reassociates); vscale
	// multiplies a prefix of o by inv in place (element-wise, exact).
	rowMax func(x []float32, scale float32) (int, float32)
	vscale func(o []float32, inv float32) int
}

var activeKernels atomic.Pointer[kernelSet]

// defaultLevel is the boot-time level: the best CPU-supported tier,
// or the NER_SIMD override when set. SetSIMDAuto restores it.
var defaultLevel SIMDLevel

func init() {
	level := bestSIMD()
	if env := os.Getenv("NER_SIMD"); env != "" {
		l, err := ParseSIMD(env)
		if err != nil {
			panic(err.Error())
		}
		if !simdSupported(l) {
			panic(fmt.Sprintf("nn: NER_SIMD=%s: %v", env, simdUnsupportedErr(l)))
		}
		level = l
	}
	defaultLevel = level
	activeKernels.Store(newKernelSet(level))
}

// kernels returns the active kernel set. Hot paths call it once per
// GEMM and thread the set through their row-range functions.
func kernels() *kernelSet { return activeKernels.Load() }

// ActiveSIMD reports the currently dispatched kernel tier.
func ActiveSIMD() SIMDLevel { return kernels().level }

// BestSIMD reports the highest tier this CPU supports.
func BestSIMD() SIMDLevel { return bestSIMD() }

// SupportedSIMDLevels lists every tier SetSIMD would accept on this
// machine, lowest first. The set is architecture-specific: amd64
// reports generic/sse2[/avx2-fma], arm64 reports generic/neon.
func SupportedSIMDLevels() []SIMDLevel {
	out := []SIMDLevel{SIMDGeneric}
	for _, t := range archTiers {
		if t.supported() {
			out = append(out, t.level)
		}
	}
	return out
}

// SetSIMD pins the kernel tier. It rejects (rather than silently
// degrades) a level the CPU or architecture cannot run. In-flight
// GEMMs finish on the set they loaded; new calls pick up the new tier.
func SetSIMD(l SIMDLevel) error {
	if !simdSupported(l) {
		return simdUnsupportedErr(l)
	}
	activeKernels.Store(newKernelSet(l))
	return nil
}

// SetSIMDAuto restores the boot-time tier (CPU-detected best, or the
// NER_SIMD override when the process started with one).
func SetSIMDAuto() {
	activeKernels.Store(newKernelSet(defaultLevel))
}

// refKernelSet builds the portable reference tier; newKernelSet
// overlays the architecture tiers on top of it.
func refKernelSet() *kernelSet {
	return &kernelSet{
		level:    SIMDGeneric,
		dot:      dotRows32Ref,
		quant:    quantRowRef,
		i8r:      i8RowsRef,
		i8r4:     i8Rows4Ref,
		gelu:     geluVecRef,
		exprow:   expRowRef,
		axpy4:    axpy4Ref,
		axpy1:    axpy1Ref,
		lnSum:    lnSumRef,
		lnSq:     lnSqRef,
		lnAffine: lnAffineRef,
		rowMax:   rowMaxRef,
		vscale:   vscaleRef,
	}
}

// Dispatch wrappers: the historical kernel names, now routed through
// the active set. Non-hot-loop callers (MatMulT32Into, GELU, tests)
// use these; the GEMM row loops load the set once instead.

func dotRows32(dst, a, rows []float32) { kernels().dot(dst, a, rows) }

func quantRow(q []int16, x []float32) float32 { return kernels().quant(q, x) }

func i8Rows(dst []float32, q []int16, wt []int8, scale, b []float32, s float32) {
	kernels().i8r(dst, q, wt, scale, b, s)
}

func i8Rows4(dst []float32, q []int16, sx []float32, wt []int8, scale, b []float32, out, inPad, dstStride int) {
	kernels().i8r4(dst, q, sx, wt, scale, b, out, inPad, dstStride)
}

func geluVec(dst, x []float32) int { return kernels().gelu(dst, x) }

// expRow32 fills dst[i] = exp32(x[i]·scale − max) for a vector-aligned
// prefix of x and returns (covered count, sum of the written values).
// The caller finishes the tail with scalar exp32 (the generic tier
// covers nothing, so the full row stays on the historical scalar
// path). Callers must guarantee x[i]·scale ≤ max — the softmax
// contract — so no overflow clamp is needed. Per-element bits are
// identical across tiers (the kernels avoid FMA); only the returned
// partial sum's accumulation order is tier-specific.
func expRow32(dst, x []float32, scale, max float32) (int, float32) {
	return kernels().exprow(dst, x, scale, max)
}
