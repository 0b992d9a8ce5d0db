package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// The property tests below are seed-driven: quick generates an int64
// seed, a deterministic randx stream expands it into a structured
// instance (an SPD system, a stable AR model, a beta distribution),
// and the property is checked to tolerance. Failures therefore shrink
// to a single reproducible seed.

// TestQuickSymSolveRecovers: for any random well-conditioned SPD
// system A = B·Bᵀ + n·I with known solution x, SymSolve(A, A·x) must
// recover x.
func TestQuickSymSolveRecovers(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		n := 1 + rng.Intn(8)
		bm := NewMatrix(n, n)
		for i := range bm {
			for j := range bm[i] {
				bm[i][j] = rng.Uniform(-1, 1)
			}
		}
		// A = B·Bᵀ + n·I is symmetric positive definite with a bounded
		// condition number, so the recovery tolerance can be tight.
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a[i][j] += bm[i][k] * bm[j][k]
				}
			}
			a[i][i] += float64(n)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Uniform(-5, 5)
		}
		rhs, err := MatVec(a, want)
		if err != nil {
			return false
		}
		got, err := SymSolve(a, rhs)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Logf("seed %d: x[%d] = %g, want %g", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRidgeSolveMatchesPlain: with lambda = 0 the ridge path,
// reusing one workspace across orders, must agree with SymSolve.
func TestQuickRidgeSolveMatchesPlain(t *testing.T) {
	ws := new(SolveWorkspace)
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.Uniform(-1, 1)
				a[i][j], a[j][i] = v, v
			}
			a[i][i] += float64(n) // diagonally dominant => SPD
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-3, 3)
		}
		plain, err := SymSolve(a, b)
		if err != nil {
			return false
		}
		into := make([]float64, n)
		if err := RidgeSymSolveInto(into, a, b, 0, ws); err != nil {
			return false
		}
		for i := range plain {
			if math.Abs(plain[i]-into[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRidgeSolveIndefiniteMatchesLU: on symmetric systems with a
// negative diagonal entry, which no positive-definite matrix has,
// RidgeSymSolveInto with lambda = 0 must leave Cholesky for its
// in-place LU fallback and agree with SolveLU bit for bit, errors
// included, reusing one workspace across orders.
func TestQuickRidgeSolveIndefiniteMatchesLU(t *testing.T) {
	ws := new(SolveWorkspace)
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.Uniform(-1, 1)
				a[i][j], a[j][i] = v, v
			}
		}
		a[n-1][n-1] = -rng.Uniform(0.5, 2)
		if _, ok := Cholesky(a); ok {
			t.Logf("seed %d: Cholesky accepted an indefinite matrix", seed)
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-3, 3)
		}
		want, errWant := SolveLU(a, b)
		got := make([]float64, n)
		errGot := RidgeSymSolveInto(got, a, b, 0, ws)
		if (errWant == nil) != (errGot == nil) {
			t.Logf("seed %d: err %v, want %v", seed, errGot, errWant)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: x[%d] = %g, want %g", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// stepUp converts reflection coefficients into the autocorrelation
// sequence of the AR process they define (the inverse of the
// Levinson-Durbin recursion): at each order j,
//
//	r[j] = -k_j·e_{j-1} - Σ_{i<j} a_i·r[j-i],  e_j = e_{j-1}·(1-k_j²)
//
// with r[0] = 1. Feeding that r back into LevinsonDurbin must recover
// exactly the k we started from.
func stepUp(k []float64) []float64 {
	p := len(k)
	r := make([]float64, p+1)
	r[0] = 1
	a := make([]float64, 0, p)
	e := 1.0
	for j := 1; j <= p; j++ {
		kj := k[j-1]
		sum := 0.0
		for i, ai := range a {
			sum += ai * r[j-1-i]
		}
		r[j] = -kj*e - sum
		// Step up the coefficients: a'_i = a_i + k_j·a_{j-1-i}, a'_j = k_j.
		next := make([]float64, j)
		for i := 0; i < j-1; i++ {
			next[i] = a[i] + kj*a[j-2-i]
		}
		next[j-1] = kj
		a = next
		e *= 1 - kj*kj
	}
	return r
}

// TestQuickLevinsonRoundTrip: random stable reflection coefficients
// (|k| <= 0.9) → autocorrelation via step-up → LevinsonDurbin must
// return the same reflection coefficients and the matching prediction
// error power Π(1-k²).
func TestQuickLevinsonRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		p := 1 + rng.Intn(6)
		k := make([]float64, p)
		for i := range k {
			k[i] = rng.Uniform(-0.9, 0.9)
		}
		r := stepUp(k)
		_, errPower, gotK, err := LevinsonDurbin(r, p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		wantE := 1.0
		for i := range k {
			wantE *= 1 - k[i]*k[i]
			if math.Abs(gotK[i]-k[i]) > 1e-8 {
				t.Logf("seed %d: k[%d] = %g, want %g", seed, i, gotK[i], k[i])
				return false
			}
		}
		if math.Abs(errPower-wantE) > 1e-8*(1+wantE) {
			t.Logf("seed %d: errPower = %g, want %g", seed, errPower, wantE)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBetaRoundTrip: the regularized incomplete beta and its
// inverse must compose to the identity across random shapes.
func TestQuickBetaRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		a := rng.Uniform(0.5, 20)
		b := rng.Uniform(0.5, 20)
		p := rng.Uniform(0.001, 0.999)
		x, err := BetaQuantile(p, a, b)
		if err != nil {
			t.Logf("seed %d: quantile: %v", seed, err)
			return false
		}
		if x < 0 || x > 1 {
			return false
		}
		back, err := RegIncBeta(x, a, b)
		if err != nil {
			t.Logf("seed %d: regincbeta: %v", seed, err)
			return false
		}
		if math.Abs(back-p) > 1e-7 {
			t.Logf("seed %d: I(Q(%g)) = %g (a=%g b=%g)", seed, p, back, a, b)
			return false
		}
		// Monotonicity spot check: a higher p never maps below x.
		p2 := p + (1-p)*0.5
		x2, err := BetaQuantile(p2, a, b)
		if err != nil {
			return false
		}
		return x2 >= x-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
