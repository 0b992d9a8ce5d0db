// Package mathx provides the small dense linear-algebra and
// special-function kernels the rest of the library builds on: symmetric
// linear solves for the AR covariance method, the Levinson-Durbin
// recursion for the autocorrelation method, and the regularized
// incomplete beta function family for Beta-reputation filtering.
//
// Everything is written against plain [][]float64 / []float64 so callers
// never depend on an opaque matrix type. All functions treat their
// arguments as read-only unless documented otherwise.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: matrix is singular to working precision")

// ErrDimension is returned when matrix/vector dimensions do not agree.
var ErrDimension = errors.New("mathx: dimension mismatch")

// NewMatrix allocates an n-by-m matrix of zeros backed by a single slice
// row per line. n and m must be non-negative.
func NewMatrix(n, m int) [][]float64 {
	rows := make([][]float64, n)
	backing := make([]float64, n*m)
	for i := range rows {
		rows[i], backing = backing[:m:m], backing[m:]
	}
	return rows
}

// CloneMatrix returns a deep copy of a.
func CloneMatrix(a [][]float64) [][]float64 {
	if len(a) == 0 {
		return nil
	}
	out := NewMatrix(len(a), len(a[0]))
	for i, row := range a {
		copy(out[i], row)
	}
	return out
}

// MatVec computes a*x. It returns ErrDimension when the shapes disagree.
func MatVec(a [][]float64, x []float64) ([]float64, error) {
	if len(a) == 0 {
		return nil, nil
	}
	if len(a[0]) != len(x) {
		return nil, fmt.Errorf("matvec %dx%d by %d: %w", len(a), len(a[0]), len(x), ErrDimension)
	}
	out := make([]float64, len(a))
	for i, row := range a {
		out[i] = Dot(row, x)
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors. It panics if
// the lengths differ because that is always a programming error in this
// code base, never a data condition.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: dot of lengths %d and %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix a. Only the lower triangle of a is
// read. The boolean result reports whether the factorization succeeded;
// it fails when a is not (numerically) positive definite.
func Cholesky(a [][]float64) ([][]float64, bool) {
	n := len(a)
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	return l, true
}

// SolveCholesky solves A x = b given the Cholesky factor L of A, via one
// forward and one backward substitution.
func SolveCholesky(l [][]float64, b []float64) ([]float64, error) {
	n := len(l)
	if len(b) != n {
		return nil, fmt.Errorf("cholesky solve order %d with rhs %d: %w", n, len(b), ErrDimension)
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
	return x, nil
}

// SolveLU solves A x = b by Gaussian elimination with partial pivoting.
// a and b are not modified. It returns ErrSingular when no pivot above
// working precision can be found.
func SolveLU(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if len(b) != n {
		return nil, fmt.Errorf("lu solve order %d with rhs %d: %w", n, len(b), ErrDimension)
	}
	m := CloneMatrix(a)
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below the diagonal.
		pivot, pivotAbs := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r][col]); abs > pivotAbs {
				pivot, pivotAbs = r, abs
			}
		}
		if pivotAbs < 1e-300 || math.IsNaN(pivotAbs) {
			return nil, fmt.Errorf("pivot %d: %w", col, ErrSingular)
		}
		if pivot != col {
			m[pivot], m[col] = m[col], m[pivot]
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= m[i][k] * x[k]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// SymSolve solves A x = b for a symmetric matrix a, preferring Cholesky
// (fast, stable for the positive-definite systems produced by the AR
// covariance method) and falling back to pivoted LU when a is
// semi-definite or indefinite, as happens for degenerate rating windows.
func SymSolve(a [][]float64, b []float64) ([]float64, error) {
	if l, ok := Cholesky(a); ok {
		return SolveCholesky(l, b)
	}
	return SolveLU(a, b)
}

// SolveWorkspace holds the scratch an in-place symmetric solve needs:
// one n×n matrix and one length-n vector. One workspace serves any
// system of order <= its capacity; the zero value is ready to use. It
// is not safe for concurrent use (one workspace per goroutine, never
// shared).
type SolveWorkspace struct {
	order int
	m     [][]float64
	y     []float64
	back  []float64
}

// ensure shapes the scratch for order n, allocating only when the order
// actually changes (the detector fits thousands of same-order windows).
func (ws *SolveWorkspace) ensure(n int) {
	if ws.order == n && ws.m != nil {
		return
	}
	if cap(ws.back) < n*n {
		ws.back = make([]float64, n*n)
	}
	if cap(ws.y) < n {
		ws.y = make([]float64, n)
	}
	ws.m = make([][]float64, n)
	for i := range ws.m {
		ws.m[i] = ws.back[i*n : (i+1)*n : (i+1)*n]
	}
	ws.y = ws.y[:n]
	ws.order = n
}

// RidgeSymSolveInto solves (A + λI) x = b into x without allocating:
// all scratch comes from ws (grown as needed). A small ridge keeps the
// covariance normal equations solvable on constant or near-constant
// rating windows. It prefers an in-place Cholesky factorization and
// falls back to in-place pivoted LU when the ridged matrix is not
// numerically positive definite. a and b are not modified.
func RidgeSymSolveInto(x []float64, a [][]float64, b []float64, lambda float64, ws *SolveWorkspace) error {
	n := len(a)
	if len(b) != n || len(x) != n {
		return fmt.Errorf("ridge solve order %d with rhs %d into %d: %w", n, len(b), len(x), ErrDimension)
	}
	ws.ensure(n)
	loadRidged := func() {
		for i, row := range a {
			copy(ws.m[i], row)
			ws.m[i][i] += lambda
		}
	}
	loadRidged()
	if choleskyInPlace(ws.m) {
		solveCholeskyInto(x, ws.m, b, ws.y)
		return nil
	}
	loadRidged() // the failed factorization clobbered the lower triangle
	return solveLUInPlace(x, ws.m, b)
}

// choleskyInPlace overwrites the lower triangle of m with its Cholesky
// factor L (m = L Lᵀ), reading only the lower triangle. It reports
// failure when m is not numerically positive definite, in which case
// the lower triangle is partially overwritten.
func choleskyInPlace(m [][]float64) bool {
	n := len(m)
	for j := 0; j < n; j++ {
		d := m[j][j]
		for k := 0; k < j; k++ {
			d -= m[j][k] * m[j][k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		m[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := m[i][j]
			for k := 0; k < j; k++ {
				s -= m[i][k] * m[j][k]
			}
			m[i][j] = s / m[j][j]
		}
	}
	return true
}

// solveCholeskyInto solves A x = b given the in-place factor L, using y
// as forward-substitution scratch.
func solveCholeskyInto(x []float64, l [][]float64, b, y []float64) {
	n := len(l)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
}

// solveLUInPlace is SolveLU operating destructively on m (already a
// scratch copy), writing the solution into x.
func solveLUInPlace(x []float64, m [][]float64, b []float64) error {
	n := len(m)
	copy(x, b)
	for col := 0; col < n; col++ {
		pivot, pivotAbs := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r][col]); abs > pivotAbs {
				pivot, pivotAbs = r, abs
			}
		}
		if pivotAbs < 1e-300 || math.IsNaN(pivotAbs) {
			return fmt.Errorf("pivot %d: %w", col, ErrSingular)
		}
		if pivot != col {
			m[pivot], m[col] = m[col], m[pivot]
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= m[i][k] * x[k]
		}
		x[i] = s / m[i][i]
	}
	return nil
}
