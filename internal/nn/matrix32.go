package nn

import "fmt"

// Matrix32 is a dense row-major matrix of float32 — the working type of
// the reduced-precision inference planes. It never carries trainable
// state: the float64 Matrix stays the single source of truth for
// weights and training activations, and Matrix32 buffers exist only
// inside inference scratch arenas and packed weight mirrors.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets every element to zero.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ReuseMatrix32 returns m reshaped to rows×cols, reusing its backing
// array when capacity allows — the float32 sibling of ReuseMatrix.
// The returned matrix's contents are unspecified.
func ReuseMatrix32(m *Matrix32, rows, cols int) *Matrix32 {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix32(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// Downconvert overwrites dst with src rounded to float32. Shapes must
// match; each element is one float64→float32 rounding (round to
// nearest even), the only precision loss on the f32 tier's inputs.
func Downconvert(dst *Matrix32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("nn: downconvert shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
}

func (m *Matrix32) mustSameShape(o *Matrix32) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("nn: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
