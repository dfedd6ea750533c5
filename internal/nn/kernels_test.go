package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The gelu4 lanes must reproduce the scalar formula exactly: the
// vectorized prefix and the scalar tail land in the same output plane,
// so any lane/scalar divergence would make a value depend on its index
// modulo 4. Exercised across the sign boundary, the ±9 tanh saturation
// cut, zeros, and denormal-small inputs, at every dispatched tier —
// gelu and expRow are the two kernels whose contract is cross-tier bit
// equality (which is why their AVX2 bodies forgo FMA).
func TestGeluVecMatchesScalar(t *testing.T) {
	forEachSIMDLevel(t, testGeluVecMatchesScalar)
}

func testGeluVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := []float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 8.9, 9.0, 9.1, -8.9, -9.0, -9.1, 100, -100, 0.5, -0.5}
	for len(xs)%4 != 0 {
		xs = append(xs, 0)
	}
	for i := 0; i < 4096; i++ {
		xs = append(xs, float32(rng.NormFloat64()*3))
	}
	got := make([]float32, len(xs))
	n := geluVec(got, xs)
	c := float32(geluC)
	for i, v := range xs {
		want := 0.5 * v * (1 + tanh32(c*(v+0.044715*v*v*v)))
		if i < n && math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("lane %d: gelu(%g) = %g (bits %#08x), scalar %g (bits %#08x)",
				i, v, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}

// expRow32's vectorized prefix must reproduce scalar exp32 bit-for-bit
// under the softmax contract (x[i]·scale ≤ max): any lane/scalar
// divergence would make an attention weight depend on its column index
// modulo the vector width. Exercised across ragged tails, the −87
// underflow flush, w = 0 (the max element), and exact-integer z values
// where the trunc-vs-floor correction is live, at every tier.
func TestExpRowMatchesScalar(t *testing.T) {
	forEachKernelSet(t, testExpRowMatchesScalar)
}

func testExpRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const scale = 0.37
	for _, n := range []int{1, 3, 4, 7, 8, 15, 16, 17, 33, 64} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 8)
		}
		if n > 2 {
			x[n/2] = x[0] - 300 // past the −87 flush after scaling
			x[n-1] = 2 / scale  // exact-integer z = w·log₂e edge
		}
		max := x[0] * scale
		for _, v := range x[1:] {
			if sv := v * scale; sv > max {
				max = sv
			}
		}
		got := make([]float32, n)
		covered, sum := expRow32(got, x, scale, max)
		if ActiveSIMD() == SIMDGeneric && covered != 0 {
			t.Fatalf("n=%d: generic tier covered %d elements, want 0", n, covered)
		}
		var wantSum float64
		for i := 0; i < covered; i++ {
			want := exp32(x[i]*scale - max)
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d lane %d: exp(%g) = %g (bits %#08x), scalar %g (bits %#08x)",
					n, i, x[i]*scale-max, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
			}
			wantSum += float64(want)
		}
		if covered > 0 {
			if diff := math.Abs(float64(sum) - wantSum); diff > 1e-5*math.Max(1, wantSum) {
				t.Fatalf("n=%d: prefix sum %g, scalar %g", n, sum, wantSum)
			}
		}
	}
}

// quantRow must return q within half a quantization step of x/scale,
// zero the padding tail, and map a zero row to scale 0 with all-zero
// q — at every dispatched tier.
func TestQuantRowProperties(t *testing.T) {
	forEachSIMDLevel(t, testQuantRowProperties)
}

func testQuantRowProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 4, 7, 8, 15, 16, 17, 24, 45} {
		inPad := (n + i8Group - 1) / i8Group * i8Group
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		q := make([]int16, inPad)
		for i := range q {
			q[i] = -1 // must be overwritten (pad included)
		}
		sx := quantRow(q, x)
		if sx <= 0 {
			t.Fatalf("n=%d: scale %g for nonzero row", n, sx)
		}
		for i, v := range x {
			diff := math.Abs(float64(v) - float64(q[i])*float64(sx))
			// Half a step plus float32 rounding proportional to |v|:
			// the v·inv product, the reference's +0.5, and the
			// inv-vs-sx reciprocal mismatch each contribute O(|v|·ulp).
			if diff > float64(sx)*0.5+math.Abs(float64(v))*4e-7 {
				t.Fatalf("n=%d q[%d]=%d: |%g - %g| = %g > sx/2 = %g", n, i, q[i], v, float64(q[i])*float64(sx), diff, sx/2)
			}
		}
		for i := n; i < inPad; i++ {
			if q[i] != 0 {
				t.Fatalf("n=%d: padding q[%d] = %d, want 0", n, i, q[i])
			}
		}
		for i := range x {
			x[i] = 0
		}
		if sx := quantRow(q, x); sx != 0 {
			t.Fatalf("n=%d: zero row scale %g", n, sx)
		}
		for i, v := range q {
			if v != 0 {
				t.Fatalf("n=%d: zero row q[%d] = %d", n, i, v)
			}
		}
	}
}

// A row must compute identical bits whether it runs through the 4-row
// blocked kernel or the single-row one: shard boundaries move with the
// worker count, and the i8 tier stays deterministic only if blocking
// never changes a row's result. Checked at every dispatched tier.
func TestI8Rows4MatchesSingleRow(t *testing.T) {
	forEachKernelSet(t, testI8Rows4MatchesSingleRow)
}

func testI8Rows4MatchesSingleRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ in, out int }{{16, 3}, {32, 8}, {48, 24}, {5, 7}} {
		inPad := (shape.in + i8Group - 1) / i8Group * i8Group
		nb := inPad / i8Group
		wt := make([]int8, shape.out*inPad)
		scale := make([]float32, shape.out*nb)
		b := make([]float32, shape.out)
		for o := 0; o < shape.out; o++ {
			for j := 0; j < shape.in; j++ {
				wt[o*inPad+j] = int8(rng.Intn(255) - 127)
			}
			for g := 0; g < nb; g++ {
				scale[o*nb+g] = float32(rng.Float64() * 0.01)
			}
			b[o] = float32(rng.NormFloat64())
		}
		q := make([]int16, 4*inPad)
		sx := make([]float32, 4)
		for r := 0; r < 4; r++ {
			for j := 0; j < shape.in; j++ {
				q[r*inPad+j] = int16(rng.Intn(65535) - 32767)
			}
			sx[r] = float32(rng.Float64() * 1e-4)
		}
		blocked := make([]float32, 4*shape.out)
		single := make([]float32, 4*shape.out)
		i8Rows4(blocked, q, sx, wt, scale, b, shape.out, inPad, shape.out)
		for r := 0; r < 4; r++ {
			i8Rows(single[r*shape.out:(r+1)*shape.out], q[r*inPad:(r+1)*inPad], wt, scale, b, sx[r])
		}
		for i := range blocked {
			if math.Float32bits(blocked[i]) != math.Float32bits(single[i]) {
				t.Fatalf("in=%d out=%d: element %d blocked %g vs single %g", shape.in, shape.out, i, blocked[i], single[i])
			}
		}
	}
}
