package signal

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// genAR2 synthesizes an AR(2) process x(n) = -a1 x(n-1) - a2 x(n-2) + w(n).
func genAR2(rng *randx.Rand, n int, a1, a2, noiseStd float64) []float64 {
	x := make([]float64, n)
	for i := 2; i < n; i++ {
		x[i] = -a1*x[i-1] - a2*x[i-2] + rng.Normal(0, noiseStd)
	}
	return x
}

func TestFitValidation(t *testing.T) {
	x := []float64{1, 2, 3}
	if _, err := Fit(x, 0, Options{}); err == nil {
		t.Fatal("order 0 accepted")
	}
	if _, err := Fit(x, 5, Options{}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short window err = %v", err)
	}
	if _, err := Fit(x, 1, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	if MethodCovariance.String() != "covariance" ||
		MethodYuleWalker.String() != "yule-walker" ||
		MethodBurg.String() != "burg" {
		t.Fatal("method names wrong")
	}
	if Method(42).String() != "method(42)" {
		t.Fatal("unknown method name wrong")
	}
}

func TestCovarianceRecoversCoefficients(t *testing.T) {
	// Low noise: covariance method must recover the generating polynomial.
	rng := randx.New(1)
	a1, a2 := -1.2, 0.6 // stable pair
	x := genAR2(rng, 600, a1, a2, 0.01)
	m, err := Fit(x, 2, Options{Method: MethodCovariance})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-a1) > 0.05 || math.Abs(m.Coeffs[1]-a2) > 0.05 {
		t.Fatalf("coeffs = %v, want about [%g %g]", m.Coeffs, a1, a2)
	}
	if m.NormalizedError < 0 || m.NormalizedError > 1 {
		t.Fatalf("normalized error = %g", m.NormalizedError)
	}
}

func TestAllMethodsRecoverCoefficients(t *testing.T) {
	rng := randx.New(2)
	a1, a2 := -0.9, 0.4
	x := genAR2(rng, 2000, a1, a2, 0.05)
	for _, method := range []Method{MethodCovariance, MethodYuleWalker, MethodBurg} {
		m, err := Fit(x, 2, Options{Method: method, Demean: true})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if math.Abs(m.Coeffs[0]-a1) > 0.1 || math.Abs(m.Coeffs[1]-a2) > 0.1 {
			t.Errorf("%v coeffs = %v, want about [%g %g]", method, m.Coeffs, a1, a2)
		}
	}
}

func TestWhiteNoiseHasHighError(t *testing.T) {
	// Demeaned white noise should be nearly unpredictable: e close to 1.
	rng := randx.New(3)
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	for _, method := range []Method{MethodCovariance, MethodYuleWalker, MethodBurg} {
		m, err := Fit(x, 4, Options{Method: method, Demean: true})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if m.NormalizedError < 0.85 {
			t.Errorf("%v white-noise error = %g, want near 1", method, m.NormalizedError)
		}
	}
}

func TestStrongSignalHasLowError(t *testing.T) {
	// A sinusoid is an ideal AR "signal": error must be tiny.
	x := make([]float64, 200)
	for i := range x {
		x[i] = math.Sin(0.3 * float64(i))
	}
	m, err := Fit(x, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NormalizedError > 1e-6 {
		t.Fatalf("sinusoid error = %g, want about 0", m.NormalizedError)
	}
}

// TestCollusionSignature is the paper's core claim in miniature
// (§III.A.1): fitting raw rating windows, the one containing a
// low-variance biased clique must have markedly lower model error than
// the honest-only window.
func TestCollusionSignature(t *testing.T) {
	rng := randx.New(4)
	honest := make([]float64, 60)
	for i := range honest {
		honest[i] = randx.Quantize(rng.NormalVar(0.7, 0.2), 11, true)
	}
	attacked := make([]float64, 0, 60)
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			attacked = append(attacked, randx.Quantize(rng.NormalVar(0.85, 0.02), 11, true))
		} else {
			attacked = append(attacked, randx.Quantize(rng.NormalVar(0.7, 0.2), 11, true))
		}
	}
	mh, err := Fit(honest, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := Fit(attacked, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ma.NormalizedError >= mh.NormalizedError {
		t.Fatalf("attacked error %g not below honest error %g",
			ma.NormalizedError, mh.NormalizedError)
	}
}

func TestZeroEnergyWindow(t *testing.T) {
	x := make([]float64, 30)
	for _, method := range []Method{MethodCovariance, MethodYuleWalker, MethodBurg} {
		m, err := Fit(x, 3, Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if m.NormalizedError != 0 || m.ErrPower != 0 {
			t.Errorf("%v zero window: %+v", method, m)
		}
		if len(m.Coeffs) != 3 {
			t.Errorf("%v zero window coeffs = %v", method, m.Coeffs)
		}
	}
}

func TestConstantWindowIsPerfectlyPredictable(t *testing.T) {
	// Raw (non-demeaned) constant ratings — e.g. a clique all voting
	// 0.9 — are a perfect AR fit: error 0.
	x := make([]float64, 40)
	for i := range x {
		x[i] = 0.9
	}
	m, err := Fit(x, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NormalizedError > 1e-9 {
		t.Fatalf("constant window error = %g", m.NormalizedError)
	}
}

func TestDemeanOption(t *testing.T) {
	// With demeaning, a constant window becomes zero-energy (error 0 by
	// convention); without, it is perfectly predictable (also 0) but
	// with nonzero energy.
	x := make([]float64, 40)
	for i := range x {
		x[i] = 0.5
	}
	raw, err := Fit(x, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Fit(x, 2, Options{Demean: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Energy <= 0 {
		t.Fatalf("raw energy = %g, want > 0", raw.Energy)
	}
	if dm.Energy != 0 {
		t.Fatalf("demeaned energy = %g, want 0", dm.Energy)
	}
}

func TestMinSamples(t *testing.T) {
	if MinSamples(MethodCovariance, 4) != 9 {
		t.Fatal("covariance min wrong")
	}
	if MinSamples(MethodYuleWalker, 4) != 5 {
		t.Fatal("yule-walker min wrong")
	}
	if MinSamples(MethodBurg, 3) != 7 {
		t.Fatal("burg min wrong")
	}
}

// Property: normalized error stays within [0, 1] across orders. (It is
// NOT monotone in order for the covariance method: the prediction
// region Σ_{n=p}^{N-1} shrinks as p grows, so the target itself moves.)
func TestFitErrorBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		n := 30 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormalVar(0.6, 0.1)
		}
		for p := 1; p <= 5; p++ {
			m, err := Fit(x, p, Options{})
			if err != nil {
				return false
			}
			if m.NormalizedError < 0 || m.NormalizedError > 1 {
				return false
			}
			if len(m.Coeffs) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: all three estimators stay within [0, 1] normalized error on
// arbitrary rating-like windows, including quantized and constant ones.
func TestAllMethodsBoundedProperty(t *testing.T) {
	prop := func(seed int64, quantized bool) bool {
		rng := randx.New(seed)
		n := 25 + rng.Intn(60)
		x := make([]float64, n)
		for i := range x {
			v := rng.NormalVar(0.5, 0.2)
			if quantized {
				v = randx.Quantize(v, 11, true)
			}
			x[i] = v
		}
		for _, method := range []Method{MethodCovariance, MethodYuleWalker, MethodBurg} {
			m, err := Fit(x, 4, Options{Method: method})
			if err != nil {
				return false
			}
			if m.NormalizedError < 0 || m.NormalizedError > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFitWSMatchesFitBitwise(t *testing.T) {
	// A reused workspace must never change a single bit of the fit —
	// across methods, orders, and demeaning, with the same workspace
	// carried (dirty) from window to window.
	rng := randx.New(99)
	ws := new(Workspace)
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(60)
		x := genAR2(rng.Split(), n, -0.6, 0.3, 0.1)
		for _, method := range []Method{MethodCovariance, MethodYuleWalker, MethodBurg} {
			for _, order := range []int{2, 4, 7} {
				for _, demean := range []bool{false, true} {
					opts := Options{Method: method, Demean: demean}
					want, errWant := Fit(x, order, opts)
					got, errGot := FitWS(x, order, opts, ws)
					if (errWant == nil) != (errGot == nil) {
						t.Fatalf("%v order %d: err %v vs %v", method, order, errWant, errGot)
					}
					if errWant != nil {
						continue
					}
					if want.NormalizedError != got.NormalizedError || want.ErrPower != got.ErrPower || want.Energy != got.Energy {
						t.Fatalf("%v order %d demean=%v: scalars differ", method, order, demean)
					}
					for i := range want.Coeffs {
						if want.Coeffs[i] != got.Coeffs[i] {
							t.Fatalf("%v order %d demean=%v: coeff %d: %g != %g",
								method, order, demean, i, want.Coeffs[i], got.Coeffs[i])
						}
					}
				}
			}
		}
	}
}

func TestFitWSAllocs(t *testing.T) {
	// With a warm workspace, the only per-fit allocation is the
	// returned Coeffs slice (plus the Model escape analysis may add).
	x := genAR2(randx.New(7), 50, -0.6, 0.3, 0.1)
	ws := new(Workspace)
	if _, err := FitWS(x, 4, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FitWS(x, 4, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("FitWS allocates %.1f objects/op with a warm workspace, want <= 2", allocs)
	}
}
