// Package stat provides the descriptive-statistics substrate: moments,
// quantiles, histograms, moving averages, autocorrelation and a
// Ljung-Box whiteness test. The paper's premise is that honest ratings
// minus their mean behave like white noise while collusion injects a
// correlated signal (§III.A.1); this package supplies the estimators
// that premise is stated — and tested — in.
package stat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stat: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (divide by n) of xs, the
// convention used throughout the paper's generator parameters. It
// returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (q in [0, 1]) of xs using linear
// interpolation between order statistics (type-7, the common default).
// xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("stat: quantile q=%g outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Demean returns xs shifted to zero mean, leaving xs untouched. The
// paper inspects x(t) − E[x(t)] for whiteness; this is that operator.
func Demean(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m := Mean(xs)
	for i, v := range xs {
		out[i] = v - m
	}
	return out
}
