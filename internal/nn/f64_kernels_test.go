package nn

import (
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

// TestF64MatMulOneTierPerGEMM switches the dispatched tier while row-
// sharded f64 MatMulInto calls run. MatMulInto loads the kernel set
// once and hands it to every shard, so each product must come from one
// set. Between SetSIMD calls the switcher installs a marked copy of
// each level's set, whose row walk adds a per-set constant to every
// output it writes, so every result must equal the serial product plus
// one mark for the whole matrix (none after a SetSIMD). Run under
// -race this also proves the switch publishes safely.
func TestF64MatMulOneTierPerGEMM(t *testing.T) {
	defer SetSIMDAuto()
	defer SetMatMulWorkers(0)
	const m, k, n = 64, 64, 48 // 196,608 multiply-adds: above the sharding gate
	if m*k*n < parallelMatMulMinFlops {
		t.Fatal("shape no longer shards")
	}
	rng := rand.New(rand.NewSource(89))
	a, b := gemmOperands(rng, m, k, n)
	SetMatMulWorkers(1)
	want := MatMul(a, b)
	SetMatMulWorkers(4)

	var sets []*kernelSet
	for i, l := range SupportedSIMDLevels() {
		marked := newKernelSet(l)
		mark := float64(i+1) * 1024
		inner := marked.mm64
		marked.mm64 = func(dst, a, b *Matrix, i0, i1 int) {
			inner(dst, a, b, i0, i1)
			for i := i0 * dst.Cols; i < i1*dst.Cols; i++ {
				dst.Data[i] += mark
			}
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
				MatMulInto(got, a, b)
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
