package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// sameF64 is bit equality, except that any NaN matches any NaN: when
// two NaNs with different payloads meet in an add, x86 keeps the first
// operand's, and which operand of the scalar reference's commutative
// add comes first is the compiler's register choice, not the kernel's
// contract.
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// f64Specials are the GEMM operands whose arithmetic the kernels must
// not round, order or skip differently from the scalar walk.
var f64Specials = []float64{
	math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3,
}

// gemmOperands builds an m×k by k×n pair for TestF64KernelsBitContract.
// Row r of a (r < 4) zeroes every k ≡ r (mod 4), so each position of a
// 4-group is skipped alone somewhere; row 4 zeroes a whole 4-group with
// +0 and −0 mixed; the last row carries one of every special. b
// carries the specials down its last column and at a few scattered
// places, so most outputs stay finite.
func gemmOperands(rng *rand.Rand, m, k, n int) (a, b *Matrix) {
	a, b = NewMatrix(m, k), NewMatrix(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	for r := 0; r < m && r < 4; r++ {
		for kk := r; kk < k; kk += 4 {
			a.Data[r*k+kk] = 0
		}
	}
	if m > 5 {
		for kk := 0; kk < k && kk < 4; kk++ {
			a.Data[4*k+kk] = math.Copysign(0, float64(kk%2*2-1))
		}
	}
	if m > 1 {
		last := a.Row(m - 1)
		for i, v := range f64Specials {
			last[(i*7)%k] = v
		}
	}
	for i, v := range f64Specials {
		b.Data[(i%k)*n+n-1] = v
		if i%3 == 0 {
			b.Data[rng.Intn(len(b.Data))] = v
		}
	}
	return a, b
}

// TestF64KernelsBitContract pins the exact f64 tier at every SIMD
// level: MatMulInto reproduces the naive scalar triple loop, and the
// GELU layer the scalar formula, bit for bit. The GEMM sweep crosses
// every output width up to 67 (the vector column tiles of 48, 24, 12
// and 4 lanes and the scalar tail), every k up to 130 (the 64-row
// panel and each 4-group remainder), skipped zeros at every position
// of a 4-group, −0/NaN/±Inf/subnormal operands in a and b, and 1-row
// inputs (the classifier's shape). The GELU sweep crosses every branch
// of math.Tanh: 0, ±tiny, |u| below and from 0.625, u around 0.5·MAXLOG
// and beyond, ±Inf and NaN.
func TestF64KernelsBitContract(t *testing.T) {
	defer SetMatMulWorkers(0)
	SetMatMulWorkers(1)
	forEachSIMDLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		for n := 1; n <= 67; n++ {
			for k := 1; k <= 130; k++ {
				m := 1
				if (n+k)%2 == 0 {
					m = 7
				}
				a, b := gemmOperands(rng, m, k, n)
				want := matMulNaive(a, b)
				got := NewMatrix(m, n)
				for i := range got.Data {
					got.Data[i] = math.NaN() // must be fully overwritten
				}
				MatMulInto(got, a, b)
				for i, v := range got.Data {
					if !sameF64(v, want.Data[i]) {
						t.Fatalf("%dx%d·%dx%d elem (%d,%d): %v (bits %#x), scalar %v (bits %#x)",
							m, k, k, n, i/n, i%n, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
					}
				}
			}
		}

		xs := geluSweep(rng)
		for _, n := range []int{len(xs), len(xs) - 1, len(xs) - 3} {
			in := xs[:n]
			got := make([]float64, n)
			g := &Matrix{Rows: 1, Cols: n, Data: got}
			NewGELU().InferInto(g, &Matrix{Rows: 1, Cols: n, Data: in})
			inPlace := append([]float64(nil), in...)
			g.Data = inPlace
			NewGELU().InferInto(g, g)
			for i, v := range in {
				want := 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
				for _, out := range []float64{got[i], inPlace[i]} {
					if math.Float64bits(out) != math.Float64bits(want) {
						t.Fatalf("len %d elem %d: gelu(%v) = %v (bits %#x), scalar %v (bits %#x)",
							n, i, v, out, math.Float64bits(out), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// geluSweep returns GELU inputs covering every branch of the tanh of
// u = c·(v + 0.044715·v³), with 8 ulps either side of each branch point
// of u (0.625 and 0.5·MAXLOG) and their negatives, then random inputs.
func geluSweep(rng *rand.Rand) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-20,
		0.3, -0.3, 0.78, -0.78, 1, -1, 3, -3, 10, -10, 50, -50, 1e10, -1e10,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	u := func(v float64) float64 { return geluC * (v + 0.044715*v*v*v) }
	for _, cut := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		lo, hi := 0.0, 100.0
		for i := 0; i < 200; i++ {
			mid := lo + (hi-lo)/2
			if u(mid) < cut {
				lo = mid
			} else {
				hi = mid
			}
		}
		v := hi
		for i := 0; i < 8; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 17; i++ {
			xs = append(xs, v, -v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, rng.NormFloat64()*3)
	}
	return xs
}

// TestF64AttentionKernelsBitContract pins the attention path's exact
// f64 kernels at every SIMD level. exp64 must be math.Exp of
// x·scale − max bit for bit over the softmax domain (−Inf, 0] — ±0,
// results down through the subnormals to the underflow-to-0 edge, −Inf
// and NaN — and a few arguments above it, at ragged row lengths (every
// tail of the 4-lane body) with a max per row. mmT64 must be Dot per element for
// T = 1…49 against head widths 1, 3, 12 and 16, through MatMulTInto
// and through strided views, with ±0, ±Inf and NaN in either operand
// and zero coefficients facing an Inf (0·Inf is NaN: nothing may be
// skipped). The bias epilogue must be MatMulInto followed by
// AddRowVecInPlace with K > 64, so sums cross panels, and every column
// tail. AttentionHeadInto must be the copied-head composition it
// replaces.
func TestF64AttentionKernelsBitContract(t *testing.T) {
	defer SetMatMulWorkers(0)
	SetMatMulWorkers(1)
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for i, v := range got {
			if !sameF64(v, want[i]) {
				t.Fatalf("%s elem %d: %v (bits %#x), scalar %v (bits %#x)",
					what, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
			}
		}
	}
	forEachSIMDLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(97))
		ks := kernels()

		xs := expSweep(rng)
		for _, sc := range [][2]float64{{1, 0}, {0.2887, 0}, {0.5, -3}, {1, 2.5}} {
			for _, cols := range []int{len(xs), len(xs) - 1, len(xs) - 3, 13, 8, 7, 5, 4, 3, 2, 1} {
				in := xs[len(xs)%cols:]
				max := make([]float64, len(in)/cols)
				for r := range max {
					max[r] = sc[1] + float64(r%3) // rows against different maxima
				}
				got := make([]float64, len(in))
				want := make([]float64, len(in))
				for i, v := range in {
					want[i] = math.Exp(v*sc[0] - max[i/cols])
				}
				ks.exp64(got, in, cols, sc[0], max)
				same(t, fmt.Sprintf("exp64 scale %v cols %d", sc[0], cols), got, want)
				inPlace := append([]float64(nil), in...)
				ks.exp64(inPlace, inPlace, cols, sc[0], max)
				same(t, "exp64 in place", inPlace, want)
			}
		}

		for _, dh := range []int{1, 3, 12, 16} {
			for T := 1; T <= 49; T++ {
				a, b := attnOperands(rng, T, dh), attnOperands(rng, T, dh)
				want := matMulTNaive(a, b)
				got := NewMatrix(T, T)
				for i := range got.Data {
					got.Data[i] = math.NaN() // must be fully overwritten
				}
				MatMulTInto(got, a, b)
				same(t, fmt.Sprintf("MatMulTInto %dx%d·(%dx%d)ᵀ", T, dh, T, dh), got.Data, want.Data)

				// The same product over strided views: heads at column 2
				// of planes three heads wide, into a padded destination.
				ld, ldd := 3*dh, T+3
				pa, pb := NewMatrix(T, ld), NewMatrix(T, ld)
				for i := 0; i < T; i++ {
					copy(pa.Row(i)[2:], a.Row(i))
					copy(pb.Row(i)[2:], b.Row(i))
				}
				pd := make([]float64, T*ldd)
				ks.mmT64(pd, pa.Data[2:], pb.Data[2:], T, T, dh, ldd, ld, ld)
				for i := 0; i < T; i++ {
					same(t, fmt.Sprintf("mmT64 strided T=%d dh=%d row %d", T, dh, i), pd[i*ldd:i*ldd+T], want.Row(i))
				}
			}
		}

		for _, k := range []int{1, 5, 64, 65, 67, 130} {
			for n := 1; n <= 53; n++ {
				m := 1 + (n+k)%6
				a, b := gemmOperands(rng, m, k, n)
				d := &Dense{W: &Param{W: b}, B: &Param{W: NewMatrix(1, n)}}
				for j := range d.B.W.Data {
					d.B.W.Data[j] = rng.NormFloat64()
				}
				for j, v := range f64Specials {
					if j < n && j%2 == 0 {
						d.B.W.Data[(j*5)%n] = v
					}
				}
				want := matMulNaive(a, b)
				want.AddRowVecInPlace(d.B.W.Data)
				got := NewMatrix(m, n)
				for i := range got.Data {
					got.Data[i] = math.NaN()
				}
				d.InferInto(got, a)
				same(t, fmt.Sprintf("bias epilogue %dx%d·%dx%d", m, k, k, n), got.Data, want.Data)
			}
		}

		for _, sh := range []struct{ T, dh, heads int }{{1, 12, 2}, {5, 12, 2}, {7, 3, 3}, {24, 12, 2}, {33, 16, 2}, {48, 16, 1}} {
			dim := sh.dh * sh.heads
			rows := sh.T + 5 // the segment sits at row 3 of a longer packed plane
			q, k, v := attnOperands(rng, rows, dim), attnOperands(rng, rows, dim), attnOperands(rng, rows, dim)
			out := NewMatrix(rows, dim)
			want := NewMatrix(rows, dim)
			for i := range out.Data {
				out.Data[i] = math.NaN()
				want.Data[i] = math.NaN()
			}
			scores := NewMatrix(sh.T, sh.T)
			qh, kh, vh := NewMatrix(sh.T, sh.dh), NewMatrix(sh.T, sh.dh), NewMatrix(sh.T, sh.dh)
			attn, oh := NewMatrix(sh.T, sh.T), NewMatrix(sh.T, sh.dh)
			for h := 0; h < sh.heads; h++ {
				col := h * sh.dh
				AttentionHeadInto(out, q, k, v, scores, 3, sh.T, col, sh.dh, 0.2887)
				for i := 0; i < sh.T; i++ {
					copy(qh.Row(i), q.Row(3 + i)[col:col+sh.dh])
					copy(kh.Row(i), k.Row(3 + i)[col:col+sh.dh])
					copy(vh.Row(i), v.Row(3 + i)[col:col+sh.dh])
				}
				MatMulTInto(attn, qh, kh)
				ScaledSoftmaxRowsInto(attn, attn, 0.2887)
				MatMulInto(oh, attn, vh)
				for i := 0; i < sh.T; i++ {
					w := want.Row(3 + i)[col : col+sh.dh]
					for j, x := range oh.Row(i) {
						w[j] = 0 + x
					}
				}
			}
			same(t, fmt.Sprintf("AttentionHeadInto T=%d dh=%d", sh.T, sh.dh), out.Data, want.Data)
		}
	})
}

// expSweep returns exp64 arguments: ±0, the softmax domain's special
// values, 8 ulps either side of the subnormal-result and underflow
// edges of math.Exp, a few positive arguments up to its overflow edge,
// then random logit differences.
func expSweep(rng *rand.Rand) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), -5e-324, -1e-300, -1e-10,
		-1, -30, -700, -708, -709, -720, -740, -745, -746, -800, -1e10, -math.MaxFloat64,
		1e-10, 1, 30, 700, 709.7, 709.79, 710, math.Inf(1),
	}
	for _, edge := range []float64{-708.3964185322641, -745.1332191019411} {
		v := edge
		for i := 0; i < 8; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 17; i++ {
			xs = append(xs, v)
			v = math.Nextafter(v, math.Inf(-1))
		}
	}
	for i := 0; i < 1<<14; i++ {
		xs = append(xs, -math.Abs(rng.NormFloat64())*8)
	}
	for i := 0; i < 64; i++ {
		xs = append(xs, -rng.Float64()*750)
	}
	return xs
}

// attnOperands builds a rows×cols attention operand: normal values with
// −0 and +0 entries, one row carrying ±Inf and NaN, and a column of
// zeros so every Inf elsewhere meets a zero coefficient.
func attnOperands(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		switch rng.Intn(16) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	if rows > 2 && cols > 1 {
		r := m.Row(rows / 2)
		r[0], r[cols-1] = math.Inf(1), math.NaN()
		m.Row(rows - 1)[cols/2] = math.Inf(-1)
		for i := 0; i < rows; i++ {
			if i != rows/2 {
				m.Row(i)[0] = 0
			}
		}
	}
	return m
}

// TestF64MatMulOneTierPerGEMM switches the dispatched tier while row-
// sharded f64 MatMulInto and MatMulTInto calls run. Each loads the
// kernel set once and hands it to every shard, so each product must
// come from one set. Between SetSIMD calls the switcher installs a
// marked copy of each level's set, whose kernels add a per-set constant
// to every output they write, so every result must equal the serial
// product plus one mark for the whole matrix (none after a SetSIMD).
// Run under -race this also proves the switch publishes safely.
func TestF64MatMulOneTierPerGEMM(t *testing.T) {
	defer SetSIMDAuto()
	defer SetMatMulWorkers(0)
	const m, k, n = 128, 64, 160 // 1,310,720 multiply-adds: above both f64 sharding gates
	if m*k*n < max(mm64MinFlops, mmT64MinFlops) {
		t.Fatal("shape no longer shards")
	}
	rng := rand.New(rand.NewSource(89))
	a, b := gemmOperands(rng, m, k, n)
	for _, c := range []struct {
		name string
		mul  func(dst, a, b *Matrix)
		b    *Matrix
	}{{"mm64", MatMulInto, b}, {"mmT64", MatMulTInto, b.Transpose()}} {
		t.Run(c.name, func(t *testing.T) { oneTierPerGEMM(t, a, c.b, m, n, c.mul) })
	}
}

func oneTierPerGEMM(t *testing.T, a, b *Matrix, m, n int, mul func(dst, a, b *Matrix)) {
	SetSIMDAuto() // the previous case's switcher may have left a marked set
	SetMatMulWorkers(1)
	want := NewMatrix(m, n)
	mul(want, a, b)
	SetMatMulWorkers(4)

	var sets []*kernelSet
	for i, l := range SupportedSIMDLevels() {
		marked := newKernelSet(l)
		mark := float64(i+1) * 1024
		markRows := func(dst []float64, m, n, ldd int) {
			for i := 0; i < m; i++ {
				for j := i * ldd; j < i*ldd+n; j++ {
					dst[j] += mark
				}
			}
		}
		inner, innerT := marked.mm64, marked.mmT64
		marked.mm64 = func(dst, a, b, bias []float64, m, n, k, ldd, lda, ldb int) {
			inner(dst, a, b, bias, m, n, k, ldd, lda, ldb)
			markRows(dst, m, n, ldd)
		}
		marked.mmT64 = func(dst, a, b []float64, m, n, k, ldd, lda, ldb int) {
			innerT(dst, a, b, m, n, k, ldd, lda, ldb)
			markRows(dst, m, n, ldd)
		}
		sets = append(sets, marked)
	}

	stop := make(chan struct{})
	errs := make(chan string, 4)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := NewMatrix(m, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				mul(got, a, b)
				// Every element must be the serial product plus one mark
				// (0 for an unmarked set), taken from the first finite
				// element; NaN and ±Inf swallow the mark.
				mark := math.NaN()
				for i, v := range got.Data {
					w := want.Data[i]
					if math.IsNaN(w) || math.IsInf(w, 0) {
						continue
					}
					if math.IsNaN(mark) {
						mark = math.Round(v - w)
					}
					if v != w+mark {
						errs <- "a sharded f64 GEMM mixed kernel sets"
						return
					}
				}
				done.Add(1)
			}
		}()
	}
	levels := SupportedSIMDLevels()
	for i := 0; done.Load() < 300 && len(errs) == 0; i++ {
		if i%2 == 0 {
			if err := SetSIMD(levels[i/2%len(levels)]); err != nil {
				t.Error(err)
				break
			}
		} else {
			activeKernels.Store(sets[i/2%len(sets)])
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}
