// Package dense is the dense linear-algebra substrate for the CP-ALS
// pipeline. It replaces the OpenBLAS/LAPACK routines the paper's codes call
// (syrk, potrf, potrs) with pure-Go implementations, plus the small-matrix
// helpers CP-ALS needs: Hadamard products, Khatri-Rao products, column
// normalization, and a Moore-Penrose pseudo-inverse.
//
// Matrices are stored in flat row-major layout, matching SPLATT's C layout
// (the paper §V-D1: "the factor matrices are stored as 1D arrays in
// row-major order, so accessing any given row can be done simply through
// pointer arithmetic"). Row returns a zero-copy subslice — the Go analogue
// of that pointer arithmetic, and the access mode the paper's optimized
// Chapel code converges to via c_ptrTo.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i,j) lives at Data[i*Cols+j].
	Data []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom wraps existing backing storage (len must be rows*cols).
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("dense: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewRandomMatrix fills a rows×cols matrix with uniform values in [0,1),
// the factor-matrix initialization SPLATT uses (mat_rand).
func NewRandomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// SetIdentity overwrites the square matrix m with the identity.
func (m *Matrix) SetIdentity() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("dense: SetIdentity on non-square %dx%d", m.Rows, m.Cols))
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// At returns element (i, j) with bounds checks from the slice runtime.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a zero-copy subslice (the "Pointer" access mode).
func (m *Matrix) Row(i int) []float64 {
	off := i * m.Cols
	return m.Data[off : off+m.Cols : off+m.Cols]
}

// RowCopy returns a fresh copy of row i. This deliberately models the
// paper's "Initial"/slicing access mode, where each Chapel array slice
// materializes a descriptor (and, in the port's assignment patterns, a
// copy). It exists so the benchmark harness can reproduce Figures 2-3.
func (m *Matrix) RowCopy(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Row(i))
	return out
}

// Jagged returns a [][]float64 view sharing m's storage, one subslice per
// row — the "2D Index" access mode of Figures 2-3 (an extra indirection per
// row access, no copying).
func (m *Matrix) Jagged() [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with src (shapes must match).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: copy shape mismatch %dx%d <- %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero clears all elements.
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

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	transposeInto(out, m)
	return out
}

// transposeInto writes srcᵀ into dst, which must be src.Cols×src.Rows.
func transposeInto(dst, src *Matrix) {
	for i := 0; i < src.Rows; i++ {
		for j, v := range src.Row(i) {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// Equal reports whether m and other agree elementwise within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the max elementwise |m - other| (shapes must match).
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("dense: MaxAbsDiff shape mismatch")
	}
	worst := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - other.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// FrobeniusNorm returns sqrt(Σ m[i,j]²).
func (m *Matrix) FrobeniusNorm() float64 {
	ss := 0.0
	for _, v := range m.Data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// String renders small matrices for debugging and test failure messages.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n  ["
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" %9.4f", m.At(i, j))
			}
			s += " ]"
		}
	}
	return s
}
