package cluster

import (
	"context"
	"testing"

	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/server"
)

// BenchmarkRouterWindowExchange times one maintenance window through
// the router's scan/apply exchange over a 3-member cluster: every
// member scanned, evidence folded, trust broadcast back.
func BenchmarkRouterWindowExchange(b *testing.B) {
	const n = 30000
	tc := newTestCluster(b, 3, 2)
	rng := randx.New(1)
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(512) + 1),
			Object: rating.ObjectID(rng.Intn(48)),
			Value:  rng.Float64(),
			Time:   rng.Float64() * 365,
		}
	}
	if err := tc.router.SubmitAll(rs); err != nil {
		b.Fatal(err)
	}
	client := server.NewClient(tc.front.URL, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Process(context.Background(), 0, 365); err != nil {
			b.Fatal(err)
		}
	}
}
