package repl_test

import (
	"testing"
	"time"

	"repro/internal/randx"
	"repro/internal/rating"
)

// BenchmarkFollowerCatchup measures replication catch-up: each
// iteration lands a burst on the primary through its journal, then
// waits until the live follower holds every rating with zero record
// lag. records/s is burst ratings per second of that wall time,
// primary ingest included. Lag alone does not prove convergence (right
// after a burst the follower still reports its stale pre-burst lag of
// 0), so the wait also checks the follower engine's length.
func BenchmarkFollowerCatchup(b *testing.B) {
	const (
		shards = 2
		burst  = 50000
		chunk  = 512
	)
	p := newPrimaryNode(b, shards)
	fn := newFollowerNode(b, shards, p.url(), nil)
	fn.waitAligned(0, 10*time.Second)
	rng := randx.New(1)
	rs := make([]rating.Rating, burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range rs {
			rs[j] = rating.Rating{
				Rater:  rating.RaterID(rng.Intn(512) + 1),
				Object: rating.ObjectID(rng.Intn(48)),
				Value:  rng.Float64(),
				Time:   rng.Float64() * 365,
			}
		}
		b.StartTimer()
		for lo := 0; lo < burst; lo += chunk {
			if err := p.SubmitAll(rs[lo:min(lo+chunk, burst)]); err != nil {
				b.Fatal(err)
			}
		}
		want := (i + 1) * burst
		waitFor(b, time.Minute, "follower caught up", func() bool {
			records, _, ok := fn.f.Lag()
			return ok && records == 0 && fn.engine.Len() == want
		})
	}
	b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "records/s")
}
