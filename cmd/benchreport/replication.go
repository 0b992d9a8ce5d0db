package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/wal"
)

// ReplicationStats measures the primary→follower WAL replication path
// end to end over real HTTP: how fast a live follower streams and
// applies a burst it is behind on (catch-up), and how far behind it
// runs while the primary ingests at a sustainable pace (steady-state
// lag percentiles, sampled from the follower's own lag accounting).
type ReplicationStats struct {
	Ratings           int     `json:"ratings"`
	Shards            int     `json:"shards"`
	CatchupWallNS     int64   `json:"catchup_wall_ns"`
	CatchupRecsPerSec float64 `json:"catchup_records_per_sec"`
	SteadyBatches     int     `json:"steady_batches"`
	SteadyBatchSize   int     `json:"steady_batch_size"`
	SteadyLagSamples  int     `json:"steady_lag_samples"`
	SteadyLagRecsP50  float64 `json:"steady_lag_records_p50"`
	SteadyLagRecsP99  float64 `json:"steady_lag_records_p99"`
	SteadyLagSecsP50  float64 `json:"steady_lag_seconds_p50"`
	SteadyLagSecsP99  float64 `json:"steady_lag_seconds_p99"`
	WallNS            int64   `json:"wall_ns"`
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// measureReplication bootstraps a follower against an empty primary,
// then (1) times the follower streaming and applying an n-rating burst
// it watched land on the primary, and (2) samples the follower's lag
// while the primary ingests small paced batches.
func measureReplication(n int, seed int64) (ReplicationStats, error) {
	const shards = 2
	stats := ReplicationStats{Ratings: n, Shards: shards}

	dir, err := os.MkdirTemp("", "benchrepl")
	if err != nil {
		return stats, err
	}
	defer os.RemoveAll(dir)

	engine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		return stats, err
	}
	// BatchSize 1: each submission flushes as it lands, not on a tick.
	j, _, err := journal.Open(engine, journal.Config{Dir: dir, WAL: wal.Options{Policy: wal.SyncNever}, BatchSize: 1})
	if err != nil {
		return stats, err
	}
	defer j.Abort()

	primary := repl.NewPrimary(repl.PrimaryConfig{
		Journal:   j,
		LongPoll:  500 * time.Millisecond,
		Poll:      200 * time.Microsecond,
		Heartbeat: 50 * time.Millisecond,
	})
	mux := http.NewServeMux()
	primary.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	fengine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		return stats, err
	}
	follower := repl.NewFollower(repl.FollowerConfig{
		PrimaryURL:   ts.URL,
		Engine:       fengine,
		Seed:         seed,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		FrameTimeout: 5 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = follower.Run(ctx) }()
	defer func() { follower.Stop(); <-runDone }()

	// Lag alone is not enough to detect convergence: right after a burst
	// lands on the primary, the follower's lag view is still the stale
	// pre-burst one (lag 0) until the next frame arrives. Gate on the
	// follower engine actually holding every submitted rating too.
	caughtUpTo := func(want int) func() bool {
		return func() bool {
			records, _, ok := follower.Lag()
			return ok && records == 0 && fengine.Len() == want
		}
	}
	waitUntil := func(what string, cond func() bool) error {
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(200 * time.Microsecond)
		}
		return fmt.Errorf("replication: timed out waiting for %s", what)
	}
	if err := waitUntil("bootstrap", caughtUpTo(0)); err != nil {
		return stats, err
	}

	// Catch-up: land the whole burst on the primary, then time until the
	// live follower has streamed and applied every record of it.
	rng := randx.New(seed)
	const chunk = 512
	rs := make([]rating.Rating, 0, chunk)
	began := time.Now()
	for i := 0; i < n; i++ {
		rs = append(rs, rating.Rating{
			Rater:  rating.RaterID(rng.Intn(512) + 1),
			Object: rating.ObjectID(rng.Intn(48)),
			Value:  rng.Float64(),
			Time:   rng.Float64() * 365,
		})
		if len(rs) == chunk {
			if err := j.SubmitAll(rs); err != nil {
				return stats, err
			}
			rs = rs[:0]
		}
	}
	if err := j.SubmitAll(rs); err != nil {
		return stats, err
	}
	if err := waitUntil("catch-up", caughtUpTo(n)); err != nil {
		got := fengine.Len()
		return stats, fmt.Errorf("%w (follower holds %d of %d ratings)", err, got, n)
	}
	wall := time.Since(began)
	stats.CatchupWallNS = wall.Nanoseconds()
	stats.CatchupRecsPerSec = float64(n) / wall.Seconds()
	stats.WallNS += wall.Nanoseconds()

	// Steady state: paced small batches, with a sampler reading the
	// follower's lag accounting throughout.
	const (
		steadyBatches = 200
		steadyBatch   = 64
		pace          = 500 * time.Microsecond
		sampleEvery   = 250 * time.Microsecond
	)
	stats.SteadyBatches, stats.SteadyBatchSize = steadyBatches, steadyBatch
	var lagRecs, lagSecs []float64
	sampleDone := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampleDone)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				records, seconds, ok := follower.Lag()
				if ok {
					lagRecs = append(lagRecs, float64(records))
					lagSecs = append(lagSecs, seconds)
				}
			}
		}
	}()
	began = time.Now()
	batch := make([]rating.Rating, steadyBatch)
	for b := 0; b < steadyBatches; b++ {
		for i := range batch {
			batch[i] = rating.Rating{
				Rater:  rating.RaterID(rng.Intn(512) + 1),
				Object: rating.ObjectID(rng.Intn(48)),
				Value:  rng.Float64(),
				Time:   rng.Float64() * 365,
			}
		}
		if err := j.SubmitAll(batch); err != nil {
			return stats, err
		}
		time.Sleep(pace)
	}
	if err := waitUntil("steady-state drain", caughtUpTo(n+steadyBatches*steadyBatch)); err != nil {
		return stats, err
	}
	close(stopSampling)
	<-sampleDone
	stats.WallNS += time.Since(began).Nanoseconds()

	sort.Float64s(lagRecs)
	sort.Float64s(lagSecs)
	stats.SteadyLagSamples = len(lagRecs)
	stats.SteadyLagRecsP50 = percentile(lagRecs, 0.50)
	stats.SteadyLagRecsP99 = percentile(lagRecs, 0.99)
	stats.SteadyLagSecsP50 = percentile(lagSecs, 0.50)
	stats.SteadyLagSecsP99 = percentile(lagSecs, 0.99)
	return stats, nil
}
