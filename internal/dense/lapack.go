package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// ErrNotPositiveDefinite reports a failed Cholesky factorization. CP-ALS
// falls back to the eigendecomposition-based pseudo-inverse in that case,
// exactly as SPLATT falls back from potrf to a pseudo-inverse when the
// Gram Hadamard product V is rank deficient.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky factors the symmetric positive-definite matrix a in place into
// its lower-triangular factor L (a = L·Lᵀ); the strict upper triangle is
// zeroed. This is the `potrf` substrate call site.
func Cholesky(a *Matrix) error {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: Cholesky on non-square %dx%d", a.Rows, a.Cols))
	}
	for j := 0; j < n; j++ {
		d := a.Data[j*n+j]
		for k := 0; k < j; k++ {
			ljk := a.Data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		a.Data[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.Data[i*n+j]
			irow := a.Data[i*n:]
			jrow := a.Data[j*n:]
			for k := 0; k < j; k++ {
				s -= irow[k] * jrow[k]
			}
			a.Data[i*n+j] = s * inv
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			a.Data[j*n+k] = 0
		}
	}
	return nil
}

// CholeskySolve solves (L·Lᵀ)·x = b in place given the lower factor L from
// Cholesky; b is overwritten with x. This is the single-row `potrs`
// substrate call and the reference cholSolveRows is bitwise identical to.
//
// Each product is written float64(a*b): the explicit conversion forces it
// to round before the subtraction, so the compiler cannot fuse the pair
// into an FMA (it would on arm64 and under GOAMD64=v3), and the result is
// the same on every GOARCH/GOAMD64 and matches the batched bodies.
func CholeskySolve(l *Matrix, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("dense: CholeskySolve rhs length %d, want %d", len(b), n))
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= float64(row[k] * b[k])
		}
		b[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.Data[k*n+i] * b[k])
		}
		b[i] = s / l.Data[i*n+i]
	}
}

// cholBatch is the number of rows the native cholSolveRows body solves at
// once; the scratch cholSolveRows takes holds cholBatch·rank floats.
const cholBatch = 8

// cholSolveRowsGeneric is the portable body of cholSolveRows: it solves
// (L·Lᵀ)·x = b in place for every row b of m in [begin, end), four rows at
// a time. Each row runs exactly CholeskySolve's operations in the same
// order (ascending k, one rounded product subtracted per step, then a
// divide by the diagonal), so the result is bitwise identical; the four
// independent sums only keep the FP pipeline busy while each one waits on
// its previous subtraction. lt is Lᵀ, so the backward pass reads rows
// instead of striding down a column of l. The scratch is the native
// body's; this one needs none.
func cholSolveRowsGeneric(l, lt, m *Matrix, begin, end int, _ []float64) {
	n := l.Rows
	i := begin
	for ; i+4 <= end; i += 4 {
		b0, b1, b2, b3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		// Forward: L·y = b.
		for j := 0; j < n; j++ {
			row := l.Data[j*n : j*n+j]
			x0, x1, x2, x3 := b0[:len(row)], b1[:len(row)], b2[:len(row)], b3[:len(row)]
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for k, ljk := range row {
				s0 -= float64(ljk * x0[k])
				s1 -= float64(ljk * x1[k])
				s2 -= float64(ljk * x2[k])
				s3 -= float64(ljk * x3[k])
			}
			d := l.Data[j*n+j]
			b0[j], b1[j], b2[j], b3[j] = s0/d, s1/d, s2/d, s3/d
		}
		// Backward: Lᵀ·x = y.
		for j := n - 1; j >= 0; j-- {
			row := lt.Data[j*n+j+1 : (j+1)*n]
			o := j + 1 + len(row)
			x0, x1, x2, x3 := b0[j+1:o], b1[j+1:o], b2[j+1:o], b3[j+1:o]
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for k, ljk := range row {
				s0 -= float64(ljk * x0[k])
				s1 -= float64(ljk * x1[k])
				s2 -= float64(ljk * x2[k])
				s3 -= float64(ljk * x3[k])
			}
			d := lt.Data[j*n+j]
			b0[j], b1[j], b2[j], b3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < end; i++ {
		CholeskySolve(l, m.Row(i))
	}
}

// JacobiEigen computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method: a = Q·diag(vals)·Qᵀ. a is not modified.
// Column j of the returned matrix is the eigenvector for vals[j].
//
// Jacobi is slow for large n but unbeatable in robustness for the R×R
// (R≈35) systems CP-ALS produces, which is all this substrate needs.
func JacobiEigen(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	q := NewMatrix(n, n)
	vals = make([]float64, n)
	JacobiEigenInto(a, NewMatrix(n, n), q, vals)
	return vals, q
}

// JacobiEigenInto is the allocation-free JacobiEigen: w is n×n scratch
// (overwritten with a working copy of a), q receives the eigenvectors, and
// vals (len n) the eigenvalues. The iteration hot path calls it through
// Workspace buffers so leverage-score refreshes stay allocation-free.
func JacobiEigenInto(a, w, q *Matrix, vals []float64) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: JacobiEigen on non-square %dx%d", a.Rows, a.Cols))
	}
	if w.Rows != n || w.Cols != n || q.Rows != n || q.Cols != n || len(vals) != n {
		panic("dense: JacobiEigenInto scratch shape mismatch")
	}
	w.CopyFrom(a)
	q.SetIdentity()
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for r := p + 1; r < n; r++ {
				apr := w.Data[p*n+r]
				if apr == 0 {
					continue
				}
				app := w.Data[p*n+p]
				arr := w.Data[r*n+r]
				theta := (arr - app) / (2 * apr)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					wpk := w.Data[p*n+k]
					wrk := w.Data[r*n+k]
					w.Data[p*n+k] = c*wpk - s*wrk
					w.Data[r*n+k] = s*wpk + c*wrk
				}
				for k := 0; k < n; k++ {
					wkp := w.Data[k*n+p]
					wkr := w.Data[k*n+r]
					w.Data[k*n+p] = c*wkp - s*wkr
					w.Data[k*n+r] = s*wkp + c*wkr
					qkp := q.Data[k*n+p]
					qkr := q.Data[k*n+r]
					q.Data[k*n+p] = c*qkp - s*qkr
					q.Data[k*n+r] = s*qkp + c*qkr
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
}

// PseudoInverse computes the Moore-Penrose pseudo-inverse V† of the
// symmetric matrix v. Eigenvalues below tol·max|λ| are treated as zero
// (rank-deficient directions are projected out). A non-positive tol selects
// a machine-precision default.
func PseudoInverse(v *Matrix, tol float64) *Matrix {
	n := v.Rows
	out := NewMatrix(n, n)
	PseudoInverseInto(v, tol, out, NewMatrix(n, n), NewMatrix(n, n),
		make([]float64, n), make([]float64, n))
	return out
}

// PseudoInverseInto is the allocation-free PseudoInverse: out receives V†,
// w and q are n×n scratch, vals and inv are n-length scratch. The sampled
// solver's leverage refresh runs it through Workspace buffers once per
// factor update.
func PseudoInverseInto(v *Matrix, tol float64, out, w, q *Matrix, vals, inv []float64) {
	n := v.Rows
	JacobiEigenInto(v, w, q, vals)
	maxAbs := 0.0
	for _, l := range vals {
		if a := math.Abs(l); a > maxAbs {
			maxAbs = a
		}
	}
	if tol <= 0 {
		tol = 1e-12
	}
	cut := tol * maxAbs
	for i, l := range vals {
		inv[i] = 0
		if math.Abs(l) > cut {
			inv[i] = 1 / l
		}
	}
	// V† = Q · diag(inv) · Qᵀ.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q.Data[i*n+k] * inv[k] * q.Data[j*n+k]
			}
			out.Data[i*n+j] = s
		}
	}
}

// SolveNormals overwrites m (I×R) with m·V†, the A(n) ← M·V† update on
// lines 5/8/11 of Algorithm 1. It first attempts the SPD fast path
// (Cholesky factor once, then row-batched triangular solves split across
// the team); if V is not positive definite it falls back to the explicit
// eigen-based pseudo-inverse. v is preserved.
//
// This is the "Inverse" routine of the paper's tables: the factorization
// (or pseudo-inverse) plus its application to the MTTKRP output.
func SolveNormals(team *parallel.Team, v *Matrix, m *Matrix) {
	if v.Rows != v.Cols || m.Cols != v.Rows {
		panic(fmt.Sprintf("dense: SolveNormals V %dx%d vs M %dx%d",
			v.Rows, v.Cols, m.Rows, m.Cols))
	}
	l := v.Clone()
	if err := Cholesky(l); err == nil {
		lt := l.Transpose()
		parallel.ForBlocks(team, m.Rows, func(_, begin, end int) {
			cholSolveRows(l, lt, m, begin, end, make([]float64, cholBatch*l.Rows))
		})
		return
	}
	pinv := PseudoInverse(v, 0)
	tmp := m.Clone()
	GemmParallel(team, tmp, pinv, m)
}
