// Package nn provides the minimal neural-network substrate used by the
// NER Globalizer reproduction: dense matrices and vectors, layers with
// explicit backpropagation, optimizers, and the contrastive losses from
// the paper (triplet loss and soft nearest-neighbour loss).
//
// The package is intentionally small and deterministic. All math is
// float64, all randomness flows through an explicitly seeded RNG, and
// layers cache their forward activations so Backward can be called
// immediately after Forward on the same inputs.
package nn

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
//
// The zero value is not useful; construct with NewMatrix or FromRows.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data
// is copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// FromVec wraps a vector as a 1×n matrix, sharing the underlying data.
func FromVec(v []float64) *Matrix {
	return &Matrix{Rows: 1, Cols: len(v), Data: v}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// AddInPlace adds o element-wise into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts o element-wise from m.
func (m *Matrix) SubInPlace(o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// MulElemInPlace multiplies m element-wise by o (Hadamard product).
func (m *Matrix) MulElemInPlace(o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// Transpose returns mᵀ as a new matrix. Hot paths avoid it: a
// transpose-then-multiply is always expressible as MatMulT (a × bᵀ) or
// TMatMul (aᵀ × b), which skip materializing the transposed copy. The
// kernels themselves live in matmul.go.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// AddRowVecInPlace adds vector v to every row of m.
func (m *Matrix) AddRowVecInPlace(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("nn: row vector length %d does not match %d cols", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
}

// SumRows returns the column-wise sum of m as a vector of length Cols.
func (m *Matrix) SumRows() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// MaxAbs returns the maximum absolute value in m, or 0 for empty matrices.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("nn: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
