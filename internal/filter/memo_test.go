package filter

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/randx"
	"repro/internal/rating"
)

// referenceBetaApply is Beta.Apply without the band memo: both
// quantiles are recomputed for every accepted rating on every refit,
// as the filter did before it memoized bands. The memoized filter must
// match it exactly.
func referenceBetaApply(f Beta, rs []rating.Rating) (Result, error) {
	if f.Q <= 0 || f.Q >= 0.5 {
		return Result{}, fmt.Errorf("filter: beta sensitivity q=%g outside (0,0.5)", f.Q)
	}
	maxIter := f.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	minKeep := f.MinKeep
	if minKeep <= 0 {
		minKeep = 2
	}
	if len(rs) == 0 {
		return Result{}, nil
	}
	accepted := make([]bool, len(rs))
	for i := range accepted {
		accepted[i] = true
	}
	nAccepted := len(rs)
	for iter := 0; iter < maxIter; iter++ {
		if nAccepted <= minKeep {
			break
		}
		alpha, beta := 1.0, 1.0
		for i, r := range rs {
			if accepted[i] {
				alpha += r.Value
				beta += 1 - r.Value
			}
		}
		majority := mathx.BetaMean(alpha, beta)
		changed := false
		for i, r := range rs {
			if !accepted[i] {
				continue
			}
			lo, err := mathx.BetaQuantile(f.Q, 1+r.Value, 2-r.Value)
			if err != nil {
				return Result{}, fmt.Errorf("filter: beta lower quantile: %w", err)
			}
			hi, err := mathx.BetaQuantile(1-f.Q, 1+r.Value, 2-r.Value)
			if err != nil {
				return Result{}, fmt.Errorf("filter: beta upper quantile: %w", err)
			}
			if majority < lo || majority > hi {
				accepted[i] = false
				nAccepted--
				changed = true
				if nAccepted <= minKeep {
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return partition(rs, accepted), nil
}

// size reports how many bands the memo holds.
func (m *bandMemo) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// sameRatings compares rating lists bit for bit, so a NaN value the
// filter never examined still compares equal to itself.
func sameRatings(a, b []rating.Rating) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rater != b[i].Rater || a[i].Object != b[i].Object ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) ||
			math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) {
			return false
		}
	}
	return true
}

// checkAgainstReference fails unless got (the result and error of a
// memoized apply) equals the reference filter's answer on rs.
func checkAgainstReference(t testing.TB, f Beta, rs []rating.Rating, got Result, gotErr error) {
	t.Helper()
	want, wantErr := referenceBetaApply(f, rs)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%+v on %d ratings: err %v, reference %v", f, len(rs), gotErr, wantErr)
	}
	if !sameRatings(got.Accepted, want.Accepted) || !sameRatings(got.Rejected, want.Rejected) {
		t.Fatalf("%+v on %d ratings: accepted %d rejected %d, reference accepted %d rejected %d",
			f, len(rs), len(got.Accepted), len(got.Rejected), len(want.Accepted), len(want.Rejected))
	}
}

// A valueScale draws one rating value.
type valueScale struct {
	name  string
	value func(rng *randx.Rand) float64
}

var (
	levels11   = valueScale{"levels11", func(rng *randx.Rand) float64 { return float64(rng.Intn(11)) / 10 }}
	stars5     = valueScale{"stars5", func(rng *randx.Rand) float64 { return float64(rng.Intn(5)) / 4 }}
	continuous = valueScale{"continuous", func(rng *randx.Rand) float64 { return rng.Float64() }}
	endpoints  = valueScale{"endpoints", func(rng *randx.Rand) float64 { return float64(rng.Intn(2)) }}

	// valueScales are the rating scales the differential tests draw from.
	valueScales = []valueScale{levels11, stars5, continuous, endpoints}
)

// mixedBatch draws n ratings: a majority near a random centre on the
// scale plus a minority anywhere on it, so refits reject something.
func mixedBatch(rng *randx.Rand, n int, value func(*randx.Rand) float64) []rating.Rating {
	centre := value(rng)
	rs := make([]rating.Rating, n)
	for i := range rs {
		v := value(rng)
		if rng.Float64() < 0.7 {
			// Pull the majority toward the centre, staying on the scale.
			if math.Abs(v-centre) > 0.2 {
				v = centre
			}
		}
		rs[i] = rating.Rating{Rater: rating.RaterID(i), Object: 1, Value: v, Time: float64(i)}
	}
	return rs
}

func TestBetaMemoMatchesReference(t *testing.T) {
	rng := randx.New(25)
	qs := []float64{0.05, 0.1, 0.25, 0.49}
	for i := 0; i < 4; i++ {
		qs = append(qs, rng.Uniform(0.001, 0.499))
	}
	for _, sc := range valueScales {
		for _, q := range qs {
			for _, shape := range []Beta{{Q: q}, {Q: q, MinKeep: 5}, {Q: q, MaxIter: 1}} {
				for trial := 0; trial < 6; trial++ {
					rs := mixedBatch(rng, 1+rng.Intn(150), sc.value)
					got, err := shape.Apply(rs)
					checkAgainstReference(t, shape, rs, got, err)
				}
			}
		}
	}
}

// TestBetaMemoPastBound runs one batch with more distinct values than
// the memo holds, so part of it is served by the per-call layer alone.
func TestBetaMemoPastBound(t *testing.T) {
	rng := randx.New(26)
	rs := make([]rating.Rating, bandMemoCap+1000)
	for i := range rs {
		rs[i] = rating.Rating{Rater: rating.RaterID(i), Value: rng.Float64(), Time: float64(i)}
	}
	for _, f := range []Beta{{Q: 0.1}, {Q: 0.3}} {
		var memo bandMemo
		got, err := f.apply(rs, &memo)
		checkAgainstReference(t, f, rs, got, err)
		if memo.size() != bandMemoCap {
			t.Fatalf("q=%g: memo holds %d bands, want %d", f.Q, memo.size(), bandMemoCap)
		}
		// A second pass is served partly from the full memo.
		got, err = f.apply(rs, &memo)
		checkAgainstReference(t, f, rs, got, err)
	}
}

func TestBetaMemoBounded(t *testing.T) {
	var memo bandMemo
	f := Beta{Q: 0.1}
	const distinct = 10000
	for start := 0; start < distinct; start += 100 {
		rs := make([]rating.Rating, 100)
		for i := range rs {
			rs[i] = rating.Rating{Rater: rating.RaterID(i), Value: float64(start+i) / distinct, Time: float64(i)}
		}
		got, err := f.apply(rs, &memo)
		checkAgainstReference(t, f, rs, got, err)
	}
	if n := memo.size(); n > bandMemoCap {
		t.Fatalf("memo holds %d bands after %d distinct values, bound %d", n, distinct, bandMemoCap)
	}
}

// TestBetaMemoErrorsNotCached: a value whose band cannot be computed
// fails with the reference's error every time, and leaves no entry.
func TestBetaMemoErrorsNotCached(t *testing.T) {
	var memo bandMemo
	f := Beta{Q: 0.1}
	for _, bad := range []float64{2.5, -1.5, math.NaN()} {
		rs := batch(0.5, 0.6, bad, 0.55)
		for pass := 0; pass < 2; pass++ {
			got, err := f.apply(rs, &memo)
			if err == nil {
				t.Fatalf("value %g: no error", bad)
			}
			checkAgainstReference(t, f, rs, got, err)
		}
	}
	if n := memo.size(); n != 2 {
		t.Fatalf("memo holds %d bands, want the 2 valid values before the bad one", n)
	}
}

// TestBetaMemoConcurrent applies different q and value sets from
// eight goroutines at once through the shared memo; every result must
// equal the serial reference. Run it under -race.
func TestBetaMemoConcurrent(t *testing.T) {
	const workers = 8
	type job struct {
		f    Beta
		rs   []rating.Rating
		want Result
	}
	jobs := make([][]job, workers)
	rng := randx.New(27)
	for w := range jobs {
		f := Beta{Q: 0.05 + 0.05*float64(w)}
		sc := valueScales[w%len(valueScales)]
		for i := 0; i < 20; i++ {
			rs := mixedBatch(rng, 20+rng.Intn(100), sc.value)
			want, err := referenceBetaApply(f, rs)
			if err != nil {
				t.Fatal(err)
			}
			jobs[w] = append(jobs[w], job{f, rs, want})
		}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(js []job) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, j := range js {
					got, err := j.f.Apply(j.rs)
					if err != nil {
						t.Errorf("q=%g: %v", j.f.Q, err)
						return
					}
					if !sameRatings(got.Accepted, j.want.Accepted) || !sameRatings(got.Rejected, j.want.Rejected) {
						t.Errorf("q=%g: result differs from the serial reference", j.f.Q)
						return
					}
				}
			}
		}(jobs[w])
	}
	wg.Wait()
}

// FuzzBetaApply checks the memoized filter against the reference on
// arbitrary sensitivities, refit limits and values: with levels ≥ 2
// each byte is one value on that many levels, otherwise each 8 bytes
// are a raw float64 (NaN, infinities and out-of-range values
// included).
func FuzzBetaApply(f *testing.F) {
	f.Add(0.1, uint8(11), uint8(0), uint8(0), []byte{8, 8, 8, 7, 8, 0, 1, 8, 9})
	f.Add(0.25, uint8(5), uint8(3), uint8(1), []byte{4, 4, 3, 0, 4, 4})
	f.Add(0.1, uint8(0), uint8(0), uint8(0), []byte("\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\x04@"))
	f.Fuzz(func(t *testing.T, q float64, levels, minKeep, maxIter uint8, raw []byte) {
		var values []float64
		if l := int(levels % 32); l >= 2 {
			for _, b := range raw {
				values = append(values, float64(int(b)%l)/float64(l-1))
			}
		} else {
			for i := 0; i+8 <= len(raw); i += 8 {
				var bits uint64
				for k := 0; k < 8; k++ {
					bits |= uint64(raw[i+k]) << (8 * k)
				}
				values = append(values, math.Float64frombits(bits))
			}
		}
		if len(values) > 512 {
			values = values[:512]
		}
		rs := batch(values...)
		bf := Beta{Q: q, MinKeep: int(minKeep % 8), MaxIter: int(maxIter % 8)}
		got, err := bf.Apply(rs)
		checkAgainstReference(t, bf, rs, got, err)
	})
}

// BenchmarkBetaApply filters 106 ratings, the average object a
// serve-mixed aggregate read filters, once on 11 levels and once on
// continuous values.
func BenchmarkBetaApply(b *testing.B) {
	for _, sc := range []valueScale{levels11, continuous} {
		rs := mixedBatch(randx.New(1), 106, sc.value)
		b.Run(sc.name, func(b *testing.B) {
			f := Beta{Q: 0.1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := f.Apply(rs)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}

var benchSink Result
