package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
)

// BenchmarkEngineAggregate prices an aggregate read of one unchanged
// object, the read a cache would serve: 800 raters rate the object on
// 11 levels over 30 days, one window charges them, and every op reads
// the object again. Sub-benchmarks vary the object's history length.
func BenchmarkEngineAggregate(b *testing.B) {
	const raters, span = 800, 30.0
	for _, n := range []int{400, 10_000, 100_000} {
		b.Run(fmt.Sprintf("ratings=%d", n), func(b *testing.B) {
			e, err := shard.NewEngine(core.Config{}, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := randx.New(11)
			rs := make([]rating.Rating, n)
			for i := range rs {
				rs[i] = rating.Rating{
					Rater:  rating.RaterID(1 + i%raters),
					Object: 0,
					Value:  randx.Quantize(rng.Normal(0.6, 0.15), 11, true),
					Time:   span * float64(i) / float64(n),
				}
			}
			if err := e.SubmitAll(rs); err != nil {
				b.Fatal(err)
			}
			if _, err := e.ProcessWindow(0, span); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Aggregate(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
