package nn

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
)

// Runtime kernel dispatch. The reduced-precision inner loops and the
// exact f64 tier's GEMMs, softmax exp and GELU come in two tiers on
// amd64: the portable Go reference (kernels_ref.go) and one vector
// tier, AVX2/FMA assembly (simd_avx2_amd64.s, plus the 4-lane softmax
// and W8A16 bodies in simd_amd64.s), dispatched when CPUID and XGETBV
// allow it. Every other architecture, arm64 included, runs the
// reference tier only. The vector tier is selected once at init from
// CPU feature bits and can be swapped at runtime through SetSIMD. This
// file owns the level namespace and the dispatch machinery; amd64
// contributes its tier as archTier (simd_amd64.go) and every other
// architecture declares none (simd_generic.go), so levels parse
// uniformly on every platform and forcing a level the local
// architecture cannot run is a loud error rather than a silent
// generic fallback.
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
//   - The f64 kernels are bit-identical to the reference bodies at
//     EVERY tier, -0/NaN/±Inf/subnormal inputs included
//     (TestF64KernelsBitContract, TestF64AttentionKernelsBitContract;
//     a NaN's payload is not pinned): mm64 (MatMulInto and the
//     bias-fused Dense.InferInto — every f64 Dense, the attention
//     combine, the classifier MLP, the Phrase Embedder, training),
//     mmT64 (MatMulTInto — the attention scores and training's
//     backward), exp64 (the softmax exp pass) and gelu64. mm64 keeps
//     each lane's ascending-k mul-then-add sequence from +0, its
//     ±0-coefficient skip and the bias added last; mmT64 is Dot per
//     element, nothing skipped; exp64 and gelu64 transliterate
//     math.Exp's FMA path, the one it runs on every host the amd64
//     vector tier accepts, and hand every lane outside its plain path
//     to math.Exp itself (exp64) or blend math.Tanh's branches
//     (gelu64). On arm64, which runs the reference bodies only, gc
//     contracts x*y+z into FMADD, so the f64 bits there are fused ones
//     a FMUL+FADD body would not reproduce.
//   - Only the layer-norm mean/variance reductions (lnSum/lnSq) and
//     the softmax exp partial sum reassociate; those are pinned by
//     analytic error bounds per tier (kernels_test.go).

// SIMDLevel identifies one dispatched kernel tier. The values are the
// ner_kernel_isa gauge's codes; code 1 named the retired amd64 sse2
// tier and code 3 the retired arm64 neon tier, and neither is reused.
type SIMDLevel uint8

const (
	// SIMDGeneric is the portable pure-Go reference tier — the only
	// tier on every architecture but amd64 and on amd64 hosts without
	// AVX2+FMA, and a forcing target everywhere for differential
	// testing.
	SIMDGeneric SIMDLevel = 0
	// SIMDAVX2 is the amd64 vector tier: 8-wide AVX2/FMA bodies, plus
	// 4-lane bodies for the W8A16 GEMM, the softmax passes and the
	// f64 GEMMs, softmax exp and GELU.
	// Requires AVX2+FMA and OS YMM state support.
	SIMDAVX2 SIMDLevel = 2
)

// String returns the level's reporting name, as surfaced in /statusz,
// the ner_kernel_isa gauge, and the bench fingerprint.
func (l SIMDLevel) String() string {
	switch l {
	case SIMDGeneric:
		return "generic"
	case SIMDAVX2:
		return "avx2-fma"
	}
	return fmt.Sprintf("SIMDLevel(%d)", uint8(l))
}

// ParseSIMD maps an operator-facing level name (NER_SIMD) to a
// SIMDLevel. "avx2" and the reporting name "avx2-fma" are synonyms.
// Every level name parses on every architecture — forcing a level the
// local architecture cannot run fails later, in SetSIMD or init, with
// an error that names the architecture and its supported levels. The
// retired "sse2" and "neon" levels are errors naming what this host
// runs instead.
func ParseSIMD(s string) (SIMDLevel, error) {
	switch s {
	case "generic":
		return SIMDGeneric, nil
	case "avx2", "avx2-fma":
		return SIMDAVX2, nil
	case "sse2", "neon":
		return 0, fmt.Errorf("nn: SIMD level %s was removed; amd64 runs avx2-fma or generic, every other architecture generic (supported levels on %s/%s: %s)",
			s, runtime.GOOS, runtime.GOARCH, supportedNames())
	}
	return 0, fmt.Errorf("nn: unknown SIMD level %q (want generic or avx2)", s)
}

// simdTier is an architecture's one vector tier: a feature gate and
// the overlay that installs its entry points on top of the reference
// set.
type simdTier struct {
	level     SIMDLevel
	supported func() bool
	apply     func(*kernelSet)
}

func bestSIMD() SIMDLevel {
	if archTier != nil && archTier.supported() {
		return archTier.level
	}
	return SIMDGeneric
}

func simdSupported(l SIMDLevel) bool { return l == SIMDGeneric || l == bestSIMD() }

// newKernelSet builds the reference set, overlaid with the
// architecture's vector tier unless l is generic. l must be supported.
func newKernelSet(l SIMDLevel) *kernelSet {
	ks := refKernelSet()
	if l != SIMDGeneric {
		archTier.apply(ks)
		ks.level = l
	}
	return ks
}

func supportedNames() string {
	var names []string
	for _, s := range SupportedSIMDLevels() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

// simdUnsupportedErr explains why a parsed level cannot run here:
// names the architecture and lists what it does support.
func simdUnsupportedErr(l SIMDLevel) error {
	return fmt.Errorf("nn: SIMD level %s is not supported on %s/%s (supported levels: %s)",
		l, runtime.GOOS, runtime.GOARCH, supportedNames())
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

	// The exact f64 tier, over strided row-major views (kernels_ref.go
	// spells out each operation sequence). mm64 is dst = a×b (+ bias):
	// MatMulInto, Dense.InferInto and the attention combine; each lane
	// folds in a[i][k]·b[k][j] in ascending k from +0, mul-then-add,
	// skipping every ±0 coefficient, and adds the bias last. mmT64 is
	// dst = a×bᵀ, one Dot per element (no skip): MatMulTInto and the
	// attention scores. exp64 is the softmax exp pass over rows of cols
	// elements, dst[r·cols+j] = math.Exp(x[r·cols+j]·scale − max[r]).
	// gelu64 is the GELU layer's
	// element loop. All four reproduce the reference bodies' bits at
	// every tier.
	mm64   func(dst, a, b, bias []float64, m, n, k, ldd, lda, ldb int)
	mmT64  func(dst, a, b []float64, m, n, k, ldd, lda, ldb int)
	exp64  func(dst, x []float64, cols int, scale float64, max []float64)
	gelu64 func(dst, x []float64)
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
			panic(fmt.Sprintf("nn: NER_SIMD=%s: %v", env, err))
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
// machine, generic first. The set is architecture-specific: amd64
// reports generic[/avx2-fma], every other architecture generic.
func SupportedSIMDLevels() []SIMDLevel {
	if best := bestSIMD(); best != SIMDGeneric {
		return []SIMDLevel{SIMDGeneric, best}
	}
	return []SIMDLevel{SIMDGeneric}
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
// overlays the architecture's vector tier on top of it.
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
		mm64:     mm64Ref,
		mmT64:    mmT64Ref,
		exp64:    exp64Ref,
		gelu64:   gelu64Ref,
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
