package signal

import (
	"fmt"
	"math"
)

// Stability analyzes an all-pole model's coefficients a(1..p) with the
// step-down (inverse Levinson) recursion, recovering the reflection
// coefficients k(1..p). The model is stable — all poles strictly inside
// the unit circle — iff every |k(i)| < 1 (Schur-Cohn).
//
// Covariance-method fits are not guaranteed stable (unlike
// Yule-Walker's); an unstable fitted model on a rating window signals a
// strong non-stationarity, which is itself diagnostic.
func Stability(coeffs []float64) (stable bool, reflection []float64, err error) {
	p := len(coeffs)
	if p == 0 {
		return true, nil, nil
	}
	for _, c := range coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false, nil, fmt.Errorf("signal: non-finite coefficient %g", c)
		}
	}

	reflection = make([]float64, p)
	a := append([]float64(nil), coeffs...)
	stable = true
	for m := p; m >= 1; m-- {
		k := a[m-1]
		reflection[m-1] = k
		if math.Abs(k) >= 1 {
			stable = false
			// The remaining reflection coefficients are undefined once a
			// step-down divisor vanishes; stop rather than divide by ~0.
			for i := 0; i < m-1; i++ {
				reflection[i] = math.NaN()
			}
			break
		}
		if m == 1 {
			break
		}
		denom := 1 - k*k
		prev := make([]float64, m-1)
		for i := 1; i < m; i++ {
			prev[i-1] = (a[i-1] - k*a[m-i-1]) / denom
		}
		a = prev
	}
	return stable, reflection, nil
}
