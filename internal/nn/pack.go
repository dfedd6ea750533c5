package nn

import (
	"math"
	"sync/atomic"
)

// Packed read-only weight mirrors for the reduced-precision inference
// tiers. The float64 Param remains the single source of truth; each
// mirror is derived from it on demand and tagged with the Param
// versions it was built from, so any weight mutation (optimizer step,
// checkpoint load, direct edit followed by Bump) invalidates it and
// the next inference call rebuilds. Mirrors are stored through
// atomic.Pointer: concurrent inference goroutines either see a fully
// built mirror or build their own identical copy, never a torn one.
//
// Layout: both mirrors store the weight TRANSPOSED (out×in) relative
// to the f64 in×out Param. The reduced kernels compute each output as
// a contiguous dot product over one mirror row, which removes the
// strided column walks and dst store/reload traffic of the f64
// saxpy-style kernel.

// pack32 is the float32 mirror of a Dense layer: transposed weights
// plus the bias, both one f64→f32 rounding away from the source.
type pack32 struct {
	wver, bver uint64
	in, out    int
	wt         []float32 // out×in, wt[o*in+i] = W[i][o]
	b          []float32 // len out
}

// i8Group is the quantization group size along the reduction (input)
// dimension: every group of 16 input features gets its own weight
// scale. Group-wise scales keep one outlier weight from inflating the
// quantization step of its whole row — the dominant error source of
// the int8 tier now that activations carry 16 bits — at the cost of
// one extra dequant multiply per group per output. Sixteen is also the
// SIMD-natural unit: one group is exactly two 8-wide int16×int8
// multiply-accumulate blocks in the amd64 kernel.
const i8Group = 16

// packI8 is the int8 mirror of a Dense layer. Quantization is
// symmetric per (output row × input group): scale[o*nb+g] =
// maxabs(W[g-th group, o])/127 and wt[o*in+i] = round(W[i][o]/scale),
// so dequantizing each group's int32 dot product needs one multiply by
// scale·sx (sx = the activation row's dynamic int16 scale). The
// float32 bias is added during dequant ("bias folding"): the integer
// loop sees only the zero-symmetric product, so a zero activation row
// still maps to exactly b — the same zero-skip semantics the f64
// kernel gets from skipping 0·w terms.
// The transposed weight rows are zero-padded to a whole number of
// groups (inPad = nb·i8Group): the kernel's activation plane carries
// matching zero padding, so padded lanes contribute exactly zero and
// the group loop never needs a ragged tail — the shape the SIMD
// kernel requires.
type packI8 struct {
	wver, bver uint64
	in, out    int
	nb         int       // groups per row: ceil(in/i8Group)
	inPad      int       // padded row stride: nb·i8Group
	wt         []int8    // out×inPad, quantized transposed weights
	scale      []float32 // out×nb per-group dequant scales
	b          []float32 // len out
}

// pack32s returns the current float32 mirror, rebuilding it if the
// weight or bias Param changed since the last build.
func (d *Dense) pack32s() *pack32 {
	wv, bv := d.W.Version(), d.B.Version()
	if p := d.p32.Load(); p != nil && p.wver == wv && p.bver == bv {
		return p
	}
	in, out := d.W.W.Rows, d.W.W.Cols
	p := &pack32{wver: wv, bver: bv, in: in, out: out,
		wt: make([]float32, in*out), b: make([]float32, out)}
	w := d.W.W
	for i := 0; i < in; i++ {
		row := w.Row(i)
		for o, v := range row {
			p.wt[o*in+i] = float32(v)
		}
	}
	for o, v := range d.B.W.Data {
		p.b[o] = float32(v)
	}
	d.p32.Store(p)
	return p
}

// packI8s returns the current int8 mirror, rebuilding it if the
// weight or bias Param changed since the last build.
func (d *Dense) packI8s() *packI8 {
	wv, bv := d.W.Version(), d.B.Version()
	if p := d.pi8.Load(); p != nil && p.wver == wv && p.bver == bv {
		return p
	}
	in, out := d.W.W.Rows, d.W.W.Cols
	nb := (in + i8Group - 1) / i8Group
	inPad := nb * i8Group
	p := &packI8{wver: wv, bver: bv, in: in, out: out, nb: nb, inPad: inPad,
		wt: make([]int8, inPad*out), scale: make([]float32, out*nb),
		b: make([]float32, out)}
	w := d.W.W
	for o := 0; o < out; o++ {
		for g := 0; g < nb; g++ {
			lo, hi := g*i8Group, (g+1)*i8Group
			if hi > in {
				hi = in // quantize real weights only; the pad stays zero
			}
			maxabs := 0.0
			for i := lo; i < hi; i++ {
				if a := math.Abs(w.Data[i*out+o]); a > maxabs {
					maxabs = a
				}
			}
			if maxabs == 0 {
				// scale stays 0; the group's quantized weights stay 0,
				// and the dequant multiply keeps its contribution at
				// exactly zero (an all-zero column yields exactly the
				// bias).
				continue
			}
			p.scale[o*nb+g] = float32(maxabs / 127)
			inv := 127 / maxabs
			for i := lo; i < hi; i++ {
				q := math.Round(w.Data[i*out+o] * inv)
				if q > 127 {
					q = 127
				} else if q < -127 {
					q = -127
				}
				p.wt[o*inPad+i] = int8(q)
			}
		}
	}
	for o, v := range d.B.W.Data {
		p.b[o] = float32(v)
	}
	d.pi8.Store(p)
	return p
}

// lnPack32 is the float32 mirror of LayerNorm's affine parameters.
type lnPack32 struct {
	gver, bver uint64
	gamma      []float32
	beta       []float32
}

func (ln *LayerNorm) pack32s() *lnPack32 {
	gv, bv := ln.Gamma.Version(), ln.Beta.Version()
	if p := ln.p32.Load(); p != nil && p.gver == gv && p.bver == bv {
		return p
	}
	dim := ln.Gamma.W.Cols
	p := &lnPack32{gver: gv, bver: bv,
		gamma: make([]float32, dim), beta: make([]float32, dim)}
	for j, v := range ln.Gamma.W.Data {
		p.gamma[j] = float32(v)
	}
	for j, v := range ln.Beta.W.Data {
		p.beta[j] = float32(v)
	}
	ln.p32.Store(p)
	return p
}

// Warm pre-builds the packed mirrors a precision tier needs, so the
// first inference after a weight change doesn't pay the packing cost
// inside a latency-sensitive call. F64 needs no mirrors.
func (d *Dense) Warm(p Precision) {
	switch p {
	case F32:
		d.pack32s()
	case I8:
		d.packI8s()
	}
}

// Warm pre-builds the float32 affine mirror for the reduced tiers
// (both f32 and i8 normalize in float32).
func (ln *LayerNorm) Warm(p Precision) {
	if p != F64 {
		ln.pack32s()
	}
}

// packPtr aliases atomic.Pointer so dense.go stays readable.
type (
	packPtr32   = atomic.Pointer[pack32]
	packPtrI8   = atomic.Pointer[packI8]
	lnPackPtr32 = atomic.Pointer[lnPack32]
)
