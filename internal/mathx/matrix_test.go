package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 5)
	if len(m) != 3 {
		t.Fatalf("rows = %d, want 3", len(m))
	}
	for i, row := range m {
		if len(row) != 5 {
			t.Fatalf("row %d length = %d, want 5", i, len(row))
		}
		for j, v := range row {
			if v != 0 {
				t.Fatalf("m[%d][%d] = %g, want 0", i, j, v)
			}
		}
	}
}

func TestNewMatrixRowsIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m[0] = append(m[0], 99) // must not clobber row 1
	if m[1][0] != 0 || m[1][1] != 0 {
		t.Fatalf("appending to row 0 corrupted row 1: %v", m[1])
	}
}

func TestCloneMatrixIndependence(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := CloneMatrix(a)
	b[0][0] = 42
	if a[0][0] != 1 {
		t.Fatal("CloneMatrix shares backing storage with source")
	}
}

func TestCloneMatrixEmpty(t *testing.T) {
	if got := CloneMatrix(nil); got != nil {
		t.Fatalf("CloneMatrix(nil) = %v, want nil", got)
	}
}

func TestMatVec(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	got, err := MatVec(a, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatVec = %v, want %v", got, want)
		}
	}
}

func TestMatVecDimensionError(t *testing.T) {
	_, err := MatVec([][]float64{{1, 2}}, []float64{1})
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// randomSPD builds a random symmetric positive-definite matrix M Mᵀ + nI.
func randomSPD(rng *rand.Rand, n int) [][]float64 {
	m := NewMatrix(n, n)
	for i := range m {
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	spd := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				spd[i][j] += m[i][k] * m[j][k]
			}
		}
		spd[i][i] += float64(n)
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, ok := Cholesky(a)
		if !ok {
			t.Fatalf("trial %d: Cholesky failed on SPD matrix", trial)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += l[i][k] * l[j][k]
				}
				if math.Abs(s-a[i][j]) > 1e-9*float64(n) {
					t.Fatalf("trial %d: (LLᵀ)[%d][%d] = %g, want %g", trial, i, j, s, a[i][j])
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := [][]float64{{1, 0}, {0, -1}}
	if _, ok := Cholesky(a); ok {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestSolveCholeskyKnown(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, ok := Cholesky(a)
	if !ok {
		t.Fatal("Cholesky failed")
	}
	x, err := SolveCholesky(l, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=9 -> x=1.5, y=2.
	if math.Abs(x[0]-1.5) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [1.5 2]", x)
	}
}

func TestSolveCholeskyDimensionError(t *testing.T) {
	l, _ := Cholesky([][]float64{{1}})
	if _, err := SolveCholesky(l, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

// ridgeSolve is the solve the AR fit runs, RidgeSymSolveInto, with
// λ = 0 and a zero-value workspace.
func ridgeSolve(a [][]float64, b []float64) ([]float64, error) {
	x := make([]float64, len(a))
	if err := RidgeSymSolveInto(x, a, b, 0, new(SolveWorkspace)); err != nil {
		return nil, err
	}
	return x, nil
}

type namedSolver struct {
	name  string
	solve func(a [][]float64, b []float64) ([]float64, error)
}

// luSolvers are the pivoted-LU solves the cases below pin: SolveLU,
// the reference, and RidgeSymSolveInto, whose in-place LU fallback
// runs whenever Cholesky fails, as it does on every non-SPD case here.
var luSolvers = []namedSolver{{"SolveLU", SolveLU}, {"RidgeSymSolveInto", ridgeSolve}}

func TestSolveLUKnown(t *testing.T) {
	a := [][]float64{{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}}
	b := []float64{-8, 0, 3}
	for _, s := range luSolvers {
		x, err := s.solve(a, b)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got, err := MatVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if math.Abs(got[i]-b[i]) > 1e-10 {
				t.Fatalf("%s: A x = %v, want %v", s.name, got, b)
			}
		}
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	for _, s := range luSolvers {
		x, err := s.solve(a, []float64{2, 3})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if x[0] != 3 || x[1] != 2 {
			t.Fatalf("%s: x = %v, want [3 2]", s.name, x)
		}
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	for _, s := range luSolvers {
		if _, err := s.solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: err = %v, want ErrSingular", s.name, err)
		}
	}
}

func TestSolveLUDoesNotMutateInputs(t *testing.T) {
	// An SPD system, where RidgeSymSolveInto takes its Cholesky path,
	// and an indefinite one, where it takes its LU path.
	for _, a := range [][][]float64{{{2, 1}, {1, 3}}, {{1, 2}, {2, 1}}} {
		for _, s := range luSolvers {
			a0, a1 := a[0][0], a[1][0]
			b := []float64{3, 5}
			if _, err := s.solve(a, b); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if a[0][0] != a0 || a[1][0] != a1 || b[0] != 3 {
				t.Fatalf("%s mutated its inputs", s.name)
			}
		}
	}
}

func TestSymSolveFallsBackToLU(t *testing.T) {
	// Symmetric indefinite: Cholesky fails, LU must still solve it.
	a := [][]float64{{0, 1}, {1, 0}}
	for _, s := range []namedSolver{{"SymSolve", SymSolve}, {"RidgeSymSolveInto", ridgeSolve}} {
		x, err := s.solve(a, []float64{5, 7})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if x[0] != 7 || x[1] != 5 {
			t.Fatalf("%s: x = %v, want [7 5]", s.name, x)
		}
	}
}

func TestRidgeSymSolveRegularizesSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	if _, err := SymSolve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected the unridged singular system to fail")
	}
	x := make([]float64, 2)
	if err := RidgeSymSolveInto(x, a, []float64{1, 1}, 1e-6, new(SolveWorkspace)); err != nil {
		t.Fatal(err)
	}
	// Symmetric problem: both components equal, near 0.5.
	if math.Abs(x[0]-x[1]) > 1e-9 || math.Abs(x[0]-0.5) > 1e-3 {
		t.Fatalf("x = %v, want approx [0.5 0.5]", x)
	}
}

// Property: for random SPD systems, SymSolve returns x with A x ≈ b.
func TestSymSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(10)
		a := randomSPD(local, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = local.NormFloat64() * 10
		}
		x, err := SymSolve(a, b)
		if err != nil {
			return false
		}
		ax, err := MatVec(a, x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-7*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve and LU solve agree on SPD systems.
func TestCholeskyAgreesWithLUProperty(t *testing.T) {
	prop := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(6)
		a := randomSPD(local, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = local.NormFloat64()
		}
		l, ok := Cholesky(a)
		if !ok {
			return false
		}
		x1, err1 := SolveCholesky(l, b)
		x2, err2 := SolveLU(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
