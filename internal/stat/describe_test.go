package stat

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of 1 sample = %g", got)
	}
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("Variance = %g, want 1.25", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("q > 1 accepted")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Fatal("NaN q accepted")
	}
}

func TestQuantileSingle(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.9)
	if err != nil || got != 42 {
		t.Fatalf("got %g, %v", got, err)
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{9, 1, 5})
	if err != nil || got != 5 {
		t.Fatalf("Median = %g, %v", got, err)
	}
}

func TestDemean(t *testing.T) {
	xs := []float64{1, 2, 3}
	out := Demean(xs)
	if Mean(out) > 1e-12 {
		t.Fatalf("demeaned mean = %g", Mean(out))
	}
	if xs[0] != 1 {
		t.Fatal("Demean mutated its input")
	}
	if out[0] != -1 || out[2] != 1 {
		t.Fatalf("Demean = %v", out)
	}
}

// Property: quantile is monotone in q and bracketed by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = local.NormFloat64() * 10
		}
		q1, q2 := local.Float64(), local.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, err1 := Quantile(xs, q1)
		v2, err2 := Quantile(xs, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 <= v2+1e-12 && v1 >= slices.Min(xs)-1e-12 && v2 <= slices.Max(xs)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceInvarianceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = local.NormFloat64()
		}
		shift := local.NormFloat64() * 100
		scale := 1 + local.Float64()*5
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i, v := range xs {
			shifted[i] = v + shift
			scaled[i] = v * scale
		}
		v := Variance(xs)
		if math.Abs(Variance(shifted)-v) > 1e-6*(1+v) {
			return false
		}
		return math.Abs(Variance(scaled)-scale*scale*v) < 1e-6*(1+scale*scale*v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
