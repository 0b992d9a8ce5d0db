package randx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	s1 := r.Split()
	s2 := r.Split()
	same := true
	for i := 0; i < 20; i++ {
		if s1.Float64() != s2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two splits produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(0.4, 0.6)
		if v < 0.4 || v >= 0.6 {
			t.Fatalf("Uniform(0.4,0.6) = %g out of range", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(6)
	const n, p = 20000, 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency = %g", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(7)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(0.7, 0.2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.7) > 0.01 {
		t.Fatalf("mean = %g, want 0.7", mean)
	}
	if math.Abs(variance-0.04) > 0.005 {
		t.Fatalf("variance = %g, want 0.04", variance)
	}
}

func TestNormalVarSemantics(t *testing.T) {
	r := New(8)
	const n = 50000
	var sumSq, sum float64
	for i := 0; i < n; i++ {
		v := r.NormalVar(0, 0.2)
		sum += v
		sumSq += v * v
	}
	variance := sumSq/n - (sum/n)*(sum/n)
	if math.Abs(variance-0.2) > 0.02 {
		t.Fatalf("NormalVar variance = %g, want 0.2", variance)
	}
	if v := r.NormalVar(0.5, 0); v != 0.5 {
		t.Fatalf("zero-variance sample = %g, want the mean", v)
	}
	if v := r.NormalVar(0.5, -1); v != 0.5 {
		t.Fatalf("negative-variance sample = %g, want the mean", v)
	}
}

func TestPoissonProcess(t *testing.T) {
	r := New(10)
	const rate, start, end = 3.0, 0.0, 60.0
	var total int
	const runs = 300
	for i := 0; i < runs; i++ {
		times := r.PoissonProcess(rate, start, end)
		if !sort.Float64sAreSorted(times) {
			t.Fatal("arrival times not sorted")
		}
		for _, tm := range times {
			if tm < start || tm >= end {
				t.Fatalf("arrival %g outside [%g,%g)", tm, start, end)
			}
		}
		total += len(times)
	}
	gotMean := float64(total) / runs
	want := rate * (end - start)
	if math.Abs(gotMean-want) > 0.05*want {
		t.Fatalf("mean arrivals = %g, want about %g", gotMean, want)
	}
}

func TestPoissonProcessEmpty(t *testing.T) {
	r := New(11)
	if got := r.PoissonProcess(0, 0, 10); got != nil {
		t.Fatalf("rate 0 produced %v", got)
	}
	if got := r.PoissonProcess(5, 10, 10); got != nil {
		t.Fatalf("empty interval produced %v", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(12)
	got := r.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if got := r.SampleWithoutReplacement(3, 10); len(got) != 3 {
		t.Fatalf("k > n: len = %d, want 3", len(got))
	}
	if got := r.SampleWithoutReplacement(3, 0); got != nil {
		t.Fatalf("k = 0 produced %v", got)
	}
}

func TestQuantizeElevenLevelsZeroBased(t *testing.T) {
	// §III.A.2: ratings can be 0, 0.1, ..., 1.
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.04, 0}, {0.06, 0.1}, {0.55, 0.6}, {1, 1}, {1.7, 1}, {-0.3, 0},
	}
	for _, c := range cases {
		if got := Quantize(c.in, 11, true); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantize(%g, 11, true) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestQuantizeTenLevelsOneBased(t *testing.T) {
	// §IV.A: rating scores are 0.1, 0.2, ..., 1 — zero is not a score.
	cases := []struct{ in, want float64 }{
		{0, 0.1}, {0.02, 0.1}, {0.55, 0.6}, {0.96, 1}, {1, 1}, {-2, 0.1},
	}
	for _, c := range cases {
		if got := Quantize(c.in, 10, false); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantize(%g, 10, false) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestQuantizePanicsOnOneLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for < 2 levels")
		}
	}()
	Quantize(0.5, 1, true)
}

// Property: quantized values are always valid scores on the scale.
func TestQuantizeAlwaysOnScaleProperty(t *testing.T) {
	prop := func(v float64, zeroBased bool) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		levels := 10
		if zeroBased {
			levels = 11
		}
		q := Quantize(v, levels, zeroBased)
		if q < 0 || q > 1 {
			return false
		}
		// Must land exactly on a grid point.
		var steps float64
		if zeroBased {
			steps = float64(levels - 1)
		} else {
			steps = float64(levels)
		}
		i := q * steps
		return math.Abs(i-math.Round(i)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsMatchSerialSplit(t *testing.T) {
	// Seeds(n) must consume exactly the stream seeds a serial loop of
	// Split calls would, in the same order — the property the parallel
	// experiment fan-out relies on for bit-identical results.
	serial := New(42)
	var want []int64
	for i := 0; i < 50; i++ {
		local := serial.Split()
		want = append(want, local.Int63()) // probe the split stream
	}

	batched := New(42)
	seeds := batched.Seeds(50)
	for i, s := range seeds {
		if got := New(s).Int63(); got != want[i] {
			t.Fatalf("seed %d: stream differs from serial Split", i)
		}
	}
	// And the parent streams are left in the same state.
	if serial.Int63() != batched.Int63() {
		t.Fatal("parent stream state differs after Seeds vs Split loop")
	}
}

func TestSeedsEmpty(t *testing.T) {
	r := New(1)
	if s := r.Seeds(0); s != nil {
		t.Fatalf("Seeds(0) = %v", s)
	}
	if s := r.Seeds(-3); s != nil {
		t.Fatalf("Seeds(-3) = %v", s)
	}
}

func TestDeriveDistinctAndNonNegative(t *testing.T) {
	seen := make(map[int64]bool)
	for _, base := range []int64{0, 1, 7, 1 << 40} {
		for i := 0; i < 1000; i++ {
			s := Derive(base, i)
			if s < 0 {
				t.Fatalf("Derive(%d,%d) = %d negative", base, i, s)
			}
			if seen[s] {
				t.Fatalf("Derive collision at base %d index %d", base, i)
			}
			seen[s] = true
		}
	}
}

func TestDeriveStreamIndependence(t *testing.T) {
	// Streams derived from adjacent indices must be statistically
	// independent: the cross-correlation of their uniform draws should
	// vanish (|r| well under 3/sqrt(n) ~ 0.03 for n = 10000 would be the
	// 3-sigma band; allow 0.05 for slack).
	const n = 10000
	a := DeriveRand(123, 0)
	b := DeriveRand(123, 1)
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	corr := cov / math.Sqrt(va*vb)
	if math.Abs(corr) > 0.05 {
		t.Fatalf("cross-stream correlation %.4f, want ~0", corr)
	}
}

// When 3×Min overflows, the first draw still spans [Min, Max] instead
// of collapsing onto Min.
func TestBackoffOverflowUsesMax(t *testing.T) {
	b := Backoff{Min: 1 << 62, Max: math.MaxInt64}
	if d := b.Next(New(1)); d <= b.Min {
		t.Fatalf("first draw %d, want above Min %d", d, b.Min)
	}
}

// Past Max/3 the product 3×previous wraps, to a small positive value
// as often as to a negative one; every later draw must still span
// [Min, Max] instead of collapsing onto Min.
func TestBackoffWrappedProductUsesMax(t *testing.T) {
	b := Backoff{Min: 1 << 62, Max: math.MaxInt64}
	r := New(1)
	for i := 1; i <= 8; i++ {
		if d := b.Next(r); d <= b.Min {
			t.Fatalf("draw %d = %d, want above Min %d", i, d, b.Min)
		}
	}
}
