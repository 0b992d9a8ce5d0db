package shard_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// The soak: hammer a sharded engine through its batching router from
// many goroutines in seeded but nondeterministic arrival order, then
// cross-check every observable — trust, aggregates, detector-driven
// malicious set — against a single-threaded core.System oracle fed
// the same ratings sequentially. Run under -race this doubles as the
// engine's and router's data-race gate (`make race-soak`).
func TestConcurrentSoakMatchesOracle(t *testing.T) {
	const writers = 8
	w := shardtest.Workload{Seed: 99, Months: 3, PerMonth: 600}
	months := w.Generate()

	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter(shard.RouterConfig{
		Shards:    4,
		BatchSize: 64,
		Flush:     e.SubmitShard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for m, month := range months {
		// Oracle: sequential ingestion.
		if err := oracle.SubmitAll(month.Ratings); err != nil {
			t.Fatal(err)
		}

		// Engine: the month's ratings split across concurrent writers
		// submitting interleaved slices through the router. Every
		// rating has a distinct per-object time, so arrival order
		// cannot change the stored sequences.
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(month.Ratings); i += writers {
					hi := i + 1
					if err := router.Submit(month.Ratings[i:hi]); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("month %d writer %d: %v", m, g, err)
			}
		}
		// Quiesce the router before the maintenance window, so the
		// window sees every acknowledged rating.
		if err := router.Flush(); err != nil {
			t.Fatal(err)
		}
		if e.Len() != oracle.Len() {
			t.Fatalf("month %d: engine has %d ratings, oracle %d", m, e.Len(), oracle.Len())
		}

		wantRep, err := oracle.ProcessWindow(month.Start, month.End)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := e.ProcessWindow(month.Start, month.End)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRep.Objects) != len(wantRep.Objects) {
			t.Fatalf("month %d: %d objects scanned, oracle %d",
				m, len(gotRep.Objects), len(wantRep.Objects))
		}
		for id, want := range wantRep.Observations {
			if got := gotRep.Observations[id]; got != want {
				t.Fatalf("month %d rater %d: observation %+v, oracle %+v", m, id, got, want)
			}
		}
	}

	want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("soak fingerprint diverges from oracle:\n%s", firstDiff(want, got))
	}
}

// The shard-count sweep: the same seeded workload, submitted by
// concurrent writers in multi-rating chunks (so single submissions
// fan out across shards and ride different group commits), must
// fingerprint identically to the sequential oracle at every shard
// count. This is the lock-free ingest path's numerical-invisibility
// gate: ring queues, per-shard workers and atomic counters may change
// timing freely, never results.
func TestConcurrentSoakAcrossShardCounts(t *testing.T) {
	const (
		writers = 6
		chunk   = 3
	)
	w := shardtest.Workload{Seed: 1234, Months: 2, PerMonth: 500}
	months := w.Generate()

	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, month := range months {
		if err := oracle.SubmitAll(month.Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ProcessWindow(month.Start, month.End); err != nil {
			t.Fatal(err)
		}
	}
	want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, 5)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		e, err := shard.NewEngine(core.Config{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		router, err := shard.NewRouter(shard.RouterConfig{
			Shards:    shards,
			BatchSize: 48,
			Flush:     e.SubmitShard,
		})
		if err != nil {
			t.Fatal(err)
		}
		for m, month := range months {
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g * chunk; i < len(month.Ratings); i += writers * chunk {
						hi := i + chunk
						if hi > len(month.Ratings) {
							hi = len(month.Ratings)
						}
						if err := router.Submit(month.Ratings[i:hi]); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("%d shards month %d writer %d: %v", shards, m, g, err)
				}
			}
			if err := router.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ProcessWindow(month.Start, month.End); err != nil {
				t.Fatal(err)
			}
		}
		if err := router.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := shardtest.Fingerprint(e, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%d shards: concurrent soak diverges from oracle:\n%s",
				shards, firstDiff(want, got))
		}
	}
}

// Concurrent readers must never trip the race detector or observe torn
// state: aggregates of every object, trust reads and the malicious
// list run while writers stream and then while a window charges trust.
// Every answer must equal the oracle's once the writers finish and
// again after the window.
func TestSoakReadersDuringIngest(t *testing.T) {
	w := shardtest.Workload{Seed: 5, Months: 1, PerMonth: 400, Objects: 5}
	month := w.Generate()[0]

	e, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter(shard.RouterConfig{Shards: 4, BatchSize: 32, Flush: e.SubmitShard})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	defer func() { close(done); readers.Wait() }()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				case <-time.After(200 * time.Microsecond):
					// Paced, so the readers probe concurrently without
					// starving the writers on a single-core box.
				}
				if _, err := e.Stats([]float64{0.5, 1}); err != nil {
					t.Error(err)
				}
				_ = e.TrustSnapshot()
				for obj := 0; obj < w.Objects; obj++ {
					_, _ = e.Aggregate(rating.ObjectID(obj))
				}
				if _, err := e.MaliciousRaters(); err != nil {
					t.Error(err)
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < len(month.Ratings); i += 4 {
				if err := router.Submit(month.Ratings[i : i+1]); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(month.Ratings) {
		t.Fatalf("engine has %d ratings, want %d", e.Len(), len(month.Ratings))
	}

	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.SubmitAll(month.Ratings); err != nil {
		t.Fatal(err)
	}
	compare := func(when string) string {
		t.Helper()
		want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, w.Objects)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardtest.Fingerprint(e, w.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: engine diverges from oracle:\n%s", when, firstDiff(want, got))
		}
		return got
	}
	ingested := compare("after ingest")
	if _, err := e.ProcessWindow(month.Start, month.End); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.ProcessWindow(month.Start, month.End); err != nil {
		t.Fatal(err)
	}
	if compare("after the window") == ingested {
		t.Fatal("the window changed nothing: the post-window check proves nothing")
	}
}
