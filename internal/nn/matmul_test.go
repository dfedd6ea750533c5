package nn

import (
	"testing"

	"nerglobalizer/internal/parallel"
)

// naive reference kernels: the pre-blocking triple loops.

func matMulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func matMulTNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

func tMatMulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func randMatrix(rows, cols int, rng *RNG) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Float64() < 0.1 {
			m.Data[i] = 0 // exercise the zero-skip branch
		}
	}
	return m
}

func mustEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-identical)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockedKernelsBitIdenticalToNaive pins the determinism contract:
// blocking and row sharding must not change a single bit of any
// product, because they preserve the per-element accumulation order.
func TestBlockedKernelsBitIdenticalToNaive(t *testing.T) {
	rng := NewRNG(42)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {24, 32, 32},
		{63, 64, 65}, {65, 130, 64}, {200, 70, 90},
	}
	for _, workers := range []int{1, 4} {
		SetMatMulWorkers(workers)
		for _, s := range shapes {
			a := randMatrix(s.m, s.k, rng)
			b := randMatrix(s.k, s.n, rng)
			bt := randMatrix(s.n, s.k, rng)
			at := randMatrix(s.k, s.m, rng)
			mustEqual(t, "MatMul", MatMul(a, b), matMulNaive(a, b))
			mustEqual(t, "MatMulT", MatMulT(a, bt), matMulTNaive(a, bt))
			mustEqual(t, "TMatMul", TMatMul(at, b), tMatMulNaive(at, b))
		}
	}
	SetMatMulWorkers(0)
}

// TestParallelKernelAboveThreshold forces the sharded path (matrix big
// enough to clear parallelMatMulMinFlops) and checks bit-identity.
func TestParallelKernelAboveThreshold(t *testing.T) {
	rng := NewRNG(7)
	const n = 96 // 96³ ≈ 885k flops > threshold
	a := randMatrix(n, n, rng)
	b := randMatrix(n, n, rng)
	SetMatMulWorkers(1)
	serial := MatMul(a, b)
	serialT := MatMulT(a, b)
	serialTT := TMatMul(a, b)
	SetMatMulWorkers(8)
	mustEqual(t, "MatMul(parallel)", MatMul(a, b), serial)
	mustEqual(t, "MatMulT(parallel)", MatMulT(a, b), serialT)
	mustEqual(t, "TMatMul(parallel)", TMatMul(a, b), serialTT)
	SetMatMulWorkers(0)
}

func TestIntoVariantsReuseDst(t *testing.T) {
	rng := NewRNG(11)
	a := randMatrix(10, 12, rng)
	b := randMatrix(12, 8, rng)
	dst := NewMatrix(10, 8)
	dst.Fill(99) // stale contents must be overwritten
	MatMulInto(dst, a, b)
	mustEqual(t, "MatMulInto", dst, matMulNaive(a, b))

	bt := randMatrix(8, 12, rng)
	dstT := NewMatrix(10, 8)
	dstT.Fill(-5)
	MatMulTInto(dstT, a, bt)
	mustEqual(t, "MatMulTInto", dstT, matMulTNaive(a, bt))

	at := randMatrix(12, 10, rng)
	dstTT := NewMatrix(10, 8)
	dstTT.Fill(3)
	TMatMulInto(dstTT, at, b)
	mustEqual(t, "TMatMulInto", dstTT, tMatMulNaive(at, b))
}

func TestIntoShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	bad := NewMatrix(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMulInto(bad, a, b)
}

func TestReuseMatrix(t *testing.T) {
	m := NewMatrix(4, 8)
	backing := &m.Data[0]
	m2 := ReuseMatrix(m, 2, 16)
	if &m2.Data[0] != backing {
		t.Fatal("ReuseMatrix should reuse capacity when it fits")
	}
	if m2.Rows != 2 || m2.Cols != 16 {
		t.Fatalf("reshaped to %dx%d", m2.Rows, m2.Cols)
	}
	m3 := ReuseMatrix(m2, 10, 10)
	if m3.Rows != 10 || m3.Cols != 10 || len(m3.Data) != 100 {
		t.Fatal("ReuseMatrix must grow when capacity is short")
	}
	if m4 := ReuseMatrix(nil, 3, 3); m4.Rows != 3 || m4.Cols != 3 {
		t.Fatal("ReuseMatrix(nil) must allocate")
	}
}

// TestInferMatchesForward pins Infer(x) == Forward(x, false) for every
// layer with an allocating Infer, the identity the heads depend on.
func TestInferMatchesForward(t *testing.T) {
	rng := NewRNG(5)
	x := randMatrix(6, 16, rng)
	layers := []struct {
		name  string
		layer Layer
	}{
		{"dense", NewDense("t.dense", 16, 10, rng)},
		{"relu", NewReLU()},
		{"sequential", NewSequential(NewDense("t.s1", 16, 16, rng), NewReLU(), NewDense("t.s2", 16, 4, rng))},
	}
	for _, tc := range layers {
		want := tc.layer.Forward(x, false)
		got := tc.layer.(Inferer).Infer(x)
		mustEqual(t, tc.name, got, want)
	}
}

// TestInferConcurrentSafe runs Infer from many goroutines over one
// shared layer stack; go test -race is the assertion.
func TestInferConcurrentSafe(t *testing.T) {
	rng := NewRNG(9)
	seq := NewSequential(
		NewDense("c.1", 16, 32, rng),
		NewReLU(),
		NewDense("c.2", 32, 8, rng),
	)
	x := randMatrix(5, 16, rng)
	want := seq.Infer(x)
	p := parallel.New(8)
	outs := parallel.MapOrdered(p, 64, func(i int) *Matrix { return seq.Infer(x) })
	for i, got := range outs {
		if got == nil {
			t.Fatalf("missing result %d", i)
		}
		mustEqual(t, "concurrent infer", got, want)
	}
}
