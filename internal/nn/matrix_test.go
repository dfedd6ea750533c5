package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("At returned wrong values: %v", m.Data)
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set did not update value")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	assertMatrixEqual(t, got, want, 0)
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(1)
	a, b := NewMatrix(4, 5), NewMatrix(3, 5)
	rng.NormalInit(a, 1)
	rng.NormalInit(b, 1)
	got := MatMulT(a, b)
	want := MatMul(a, b.Transpose())
	assertMatrixEqual(t, got, want, 1e-12)
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a, b := NewMatrix(4, 5), NewMatrix(4, 3)
	rng.NormalInit(a, 1)
	rng.NormalInit(b, 1)
	got := TMatMul(a, b)
	want := MatMul(a.Transpose(), b)
	assertMatrixEqual(t, got, want, 1e-12)
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(3)
	m := NewMatrix(5, 7)
	rng.NormalInit(m, 1)
	assertMatrixEqual(t, m.Transpose().Transpose(), m, 0)
}

func TestAddSubScaleInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	a.AddInPlace(b)
	assertMatrixEqual(t, a, FromRows([][]float64{{11, 22}, {33, 44}}), 0)
	a.SubInPlace(b)
	assertMatrixEqual(t, a, FromRows([][]float64{{1, 2}, {3, 4}}), 0)
	a.ScaleInPlace(2)
	assertMatrixEqual(t, a, FromRows([][]float64{{2, 4}, {6, 8}}), 0)
}

func TestSumRowsAndAddRowVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	sums := m.SumRows()
	if sums[0] != 5 || sums[1] != 7 || sums[2] != 9 {
		t.Fatalf("SumRows = %v", sums)
	}
	m.AddRowVecInPlace([]float64{1, 1, 1})
	if m.At(0, 0) != 2 || m.At(1, 2) != 7 {
		t.Fatalf("AddRowVecInPlace result = %v", m.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-3, 4}})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(seed uint8) bool {
		r := NewRNG(int64(seed))
		a, b, c := NewMatrix(3, 4), NewMatrix(3, 4), NewMatrix(4, 2)
		r.NormalInit(a, 1)
		r.NormalInit(b, 1)
		r.NormalInit(c, 1)
		sum := a.Clone()
		sum.AddInPlace(b)
		left := MatMul(sum, c)
		right := MatMul(a, c)
		right.AddInPlace(MatMul(b, c))
		left.SubInPlace(right)
		return left.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng.r}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := NewRNG(int64(seed) + 100)
		a, b := NewMatrix(3, 5), NewMatrix(5, 2)
		r.NormalInit(a, 1)
		r.NormalInit(b, 1)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		left.SubInPlace(right)
		return left.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func assertMatrixEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}
