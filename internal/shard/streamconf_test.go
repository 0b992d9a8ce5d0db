package shard_test

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// streamConfCfg is the authoritative pipeline config for the streaming
// conformance runs: both aux window detectors on, so the fold with the
// most cross-shard surface is in play.
func streamConfCfg() core.Config {
	return core.Config{
		Collusion: &collusion.Config{MinSimilarity: 0.6, MinCoRatings: 2, MinGroupSize: 2},
		Iterative: &detector.IterativeConfig{},
	}
}

func streamDetectCfg() shard.StreamConfig {
	return shard.StreamConfig{
		Detector:       detector.Config{Size: 30, Step: 15, Threshold: 0.08},
		AlertThreshold: 0.3,
	}
}

// TestStreamConformance is the streaming-vs-batch contract: replaying
// an arbitrary seeded interleaving of submit chunks and window closes
// through engines with the online detection path enabled produces a
// trace — every window observation, trust record, malicious list and
// aggregate at every close, at full float precision — byte-identical
// to a batch core.System oracle with no streaming at all, at 1, 2, 4
// and 8 shards, with both aux window detectors enabled. The advisory
// streaming state itself must also be shard-count invariant.
func TestStreamConformance(t *testing.T) {
	for _, seed := range []int64{2, 13, 31} {
		w := shardtest.Workload{Seed: seed, Objects: 5}
		ops := w.InterleavedOps(seed)

		oracle, err := core.NewSystem(streamConfCfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := shardtest.RunOps(shardtest.Oracle{System: oracle}, ops, 5)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		streamFP := ""
		for _, shards := range []int{1, 2, 4, 8} {
			e, err := shard.NewEngine(streamConfCfg(), shards)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.EnableStreaming(streamDetectCfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := shardtest.RunOps(e, ops, 5)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if got != want {
				t.Fatalf("seed %d: %d-shard streaming trace diverges from batch oracle:\n%s",
					seed, shards, firstDiff(want, got))
			}
			s.Sync()
			fp := s.Fingerprint()
			if streamFP == "" {
				streamFP = fp
			} else if fp != streamFP {
				t.Fatalf("seed %d: %d-shard stream state diverges:\n%s",
					seed, shards, firstDiff(streamFP, fp))
			}
			if s.Stats().Pushed == 0 {
				t.Fatalf("seed %d shards %d: streaming path saw no ratings", seed, shards)
			}
			s.Close()
		}
		if streamFP == "" {
			t.Fatalf("seed %d: no stream fingerprint collected", seed)
		}
	}
}

// TestStreamConformanceSoak races concurrent router-fed ingest against
// the pump goroutines with streaming (and both aux detectors) enabled,
// then closes the months' windows and requires the trust trace to
// stay byte-identical to the sequential batch oracle — the proof that
// the advisory path perturbs nothing even under contention. Run under
// -race by `make stream-conformance`.
func TestStreamConformanceSoak(t *testing.T) {
	const writers = 16
	w := shardtest.Workload{Seed: 77, Objects: 5}
	months := w.Generate()

	oracle, err := core.NewSystem(streamConfCfg())
	if err != nil {
		t.Fatal(err)
	}
	e, err := shard.NewEngine(streamConfCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.EnableStreaming(streamDetectCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
		if err := oracle.SubmitAll(month.Ratings); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(month.Ratings); i += writers {
					if err := router.Submit(month.Ratings[i : i+1]); err != nil {
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
		if err := router.Flush(); err != nil {
			t.Fatal(err)
		}
		wantRep, err := oracle.ProcessWindow(month.Start, month.End)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := e.ProcessWindow(month.Start, month.End)
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range wantRep.Observations {
			if got := gotRep.Observations[id]; got != want {
				t.Fatalf("month %d rater %d: observation %+v, oracle %+v", m, id, got, want)
			}
		}
	}
	s.Sync()
	want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streaming engine diverged from oracle under concurrent ingest:\n%s", firstDiff(want, got))
	}
	if s.Stats().Pushed == 0 {
		t.Fatal("streaming path saw no ratings")
	}
}

// TestStreamAlertsFlagClique checks the end the user sees: with a
// maintenance schedule driven by the streaming path itself, the
// workload's malicious clique raises stream alerts before any window
// closes, and window alerts once charging catches up.
func TestStreamAlertsFlagClique(t *testing.T) {
	w := shardtest.Workload{Seed: 5, Objects: 5, Raters: 20, Malicious: 4, Months: 3, PerMonth: 400, BurstLen: 60}
	months := w.Generate()

	e, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	windows := make(chan [2]float64, 16)
	cfg := streamDetectCfg()
	cfg.MaintainEvery = 30
	cfg.OnWindowDue = func(start, end float64) {
		if _, err := e.ProcessWindow(start, end); err != nil {
			t.Errorf("window [%g,%g): %v", start, end, err)
		}
		windows <- [2]float64{start, end}
	}
	s, err := e.EnableStreaming(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Submit in time order — the live streaming regime — so the online
	// detector sees every rating.
	for _, month := range months {
		rs := append([]rating.Rating(nil), month.Ratings...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
		if err := e.SubmitAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync()

	// The streaming clock crossed at least the first two month
	// boundaries (the last month's end has no later rating to prove
	// it is over) and fired them in order.
	if len(windows) < 2 {
		t.Fatalf("%d auto windows fired", len(windows))
	}
	prevEnd := 0.0
	for len(windows) > 0 {
		win := <-windows
		if win[0] != prevEnd {
			t.Fatalf("window [%g,%g) fired after end %g", win[0], win[1], prevEnd)
		}
		prevEnd = win[1]
	}

	alerts, next := s.Alerts().Alerts(0)
	if next != uint64(len(alerts)) || len(alerts) == 0 {
		t.Fatalf("alerts=%d next=%d", len(alerts), next)
	}
	bySource := map[string][]shard.Alert{}
	for i, a := range alerts {
		if a.Seq != uint64(i+1) {
			t.Fatalf("alert %d has seq %d", i, a.Seq)
		}
		bySource[a.Source] = append(bySource[a.Source], a)
	}
	// The online path must raise its first alert before the first
	// authoritative window ever closes — the whole point of streaming
	// detection — and window alerts must land exactly at closes.
	stream := bySource[shard.AlertSourceStream]
	if len(stream) == 0 {
		t.Fatalf("no stream alerts; alerts: %+v", alerts)
	}
	if first := stream[0].FirstFlagged; first >= 30 {
		t.Fatalf("first stream alert at t=%g, after the first window close", first)
	}
	if len(bySource[shard.AlertSourceWindow]) == 0 {
		t.Fatalf("no window alerts; alerts: %+v", alerts)
	}
	for _, a := range bySource[shard.AlertSourceWindow] {
		if a.FirstFlagged != 30 && a.FirstFlagged != 60 && a.FirstFlagged != 90 {
			t.Fatalf("window alert timestamped %g, not a window end", a.FirstFlagged)
		}
	}
	// The clique must be caught by at least one detection source.
	clique := false
	for _, a := range alerts {
		if int(a.Rater) >= w.Raters {
			clique = true
			break
		}
	}
	if !clique {
		t.Fatalf("no clique rater alerted; alerts: %+v", alerts)
	}
	// Alerts are flag events, not live state: a rater whose trust
	// recovers later stays alerted, so the final malicious list need
	// not cover every window alert — but it must not be empty when
	// window alerts fired.
	mal, err := e.MaliciousRaters()
	if err != nil {
		t.Fatal(err)
	}
	if len(mal) == 0 {
		t.Fatal("window alerts fired but the malicious list is empty")
	}
}
