package journal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// BenchmarkJournalUnarySubmit prices ratingd's unary write path, the
// traffic of POST /v1/ratings: each op is one blocking SubmitAll of 1
// to 16 ratings into a 2-shard journal that fsyncs every commit, with
// the daemon's default group commit (256 ratings, 2 ms). Sub-benchmarks
// vary the number of concurrent submitters. ratings/s is the
// throughput; flushes/op is router flushes per submit, which falls
// below one as concurrent submits share a flush.
func BenchmarkJournalUnarySubmit(b *testing.B) {
	for _, submitters := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			engine, err := shard.NewEngine(core.Config{}, 2)
			if err != nil {
				b.Fatal(err)
			}
			metrics := shard.NewMetrics(telemetry.NewRegistry(), 2)
			j, _, err := Open(engine, Config{
				Dir:     b.TempDir(),
				WAL:     wal.Options{Policy: wal.SyncAlways},
				Metrics: metrics,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Abort()
			var next, ratings, clock atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(rng *randx.Rand) {
					defer wg.Done()
					// SubmitAll copies the ratings into the router's
					// rings, so the buffer is reused once it returns.
					buf := make([]rating.Rating, 0, 16)
					for next.Add(1) <= int64(b.N) {
						buf = buf[:0]
						for k := 1 + rng.Intn(16); k > 0; k-- {
							buf = append(buf, rating.Rating{
								Rater:  rating.RaterID(rng.Intn(512) + 1),
								Object: rating.ObjectID(rng.Intn(48)),
								Value:  rng.Float64(),
								Time:   float64(clock.Add(1)) / 1000,
							})
						}
						if err := j.SubmitAll(buf); err != nil {
							b.Error(err)
							return
						}
						ratings.Add(int64(len(buf)))
					}
				}(randx.New(int64(g + 1)))
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(ratings.Load())/b.Elapsed().Seconds(), "ratings/s")
			b.ReportMetric(float64(metrics.BatchesTotal.Total())/float64(b.N), "flushes/op")
		})
	}
}
