// Command benchreport runs registered experiments in Quick mode and
// writes a machine-readable performance report: per-experiment wall
// time and heap-allocation statistics (bytes and object counts from
// runtime.MemStats deltas), plus environment metadata. The default
// output name BENCH_1.json is the checked-in report format; bump the
// number for later snapshots so history stays diffable.
//
// The report also measures crash-recovery replay throughput: a
// synthetic write-ahead log is generated, then recovered (full read,
// CRC verification, decode) and replayed into a fresh system, timing
// the path a restarting ratingd takes.
//
// It also measures the telemetry tax: the full ProcessWindow
// pipeline is timed with per-stage span instrumentation live and
// again with a nil registry (the no-op path), and the relative
// overhead is reported. The budget is <2%.
//
// It also measures shard scaling: the same out-of-order rating
// stream is ingested through the batching router at 1, 2, 4, and 8
// shards, and the report records the 4-shard speedup over the
// single-shard baseline (target: at least 1.5x).
//
// It also measures the HTTP serving layer: NDJSON streaming ingest
// against chunked unary POSTs at 4 shards (target: at least 2x), and
// the read cache against aggregate recomputation (target: at least
// 5x, with a byte-identical conformance gate before timing).
//
// It also measures WAL replication: a live follower's catch-up
// throughput over the long-poll NDJSON stream, and its steady-state
// lag percentiles (records and seconds) while the primary ingests
// paced batches.
//
// It also measures partitioned serving: the same stream ingested
// through a plain single-node daemon and through the routing proxy
// fronting a three-member cluster (one extra owner-forwarding hop per
// request), plus the scan/apply window exchange and the
// scatter-gather read paths across the member set.
//
// It also measures the streaming detection path (-stream-detect):
// per-attack detection latency of online stream alerts versus batch
// maintenance windows on the adversary-zoo workload, and the ingest
// throughput cost of keeping streaming on at 4 shards.
//
// Finally it records the detector×attack benchmark matrix (AUC,
// detection rate, latency, aggregation error per cell) so detector
// regressions show up in BENCH history alongside perf regressions.
//
//	benchreport                      # all experiments -> BENCH_10.json
//	benchreport -run tab1 -out -     # one experiment  -> stdout
//	benchreport -workers 4 -walrecords 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Report is the top-level JSON document.
type Report struct {
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Workers     int                `json:"workers"`
	Mode        string             `json:"mode"`
	Seed        int64              `json:"seed"`
	Experiments []ExperimentStats  `json:"experiments"`
	WALReplay   *WALReplayStats    `json:"wal_replay,omitempty"`
	Telemetry   *TelemetryStats    `json:"telemetry_overhead,omitempty"`
	ShardScale  *ShardScalingStats `json:"shard_scaling,omitempty"`
	Serving     *ServingStats      `json:"serving,omitempty"`
	Replication *ReplicationStats  `json:"replication,omitempty"`
	Cluster     *ClusterStats      `json:"cluster,omitempty"`
	Streaming   *StreamingStats    `json:"streaming,omitempty"`
	Detection   *DetectionStats    `json:"detection,omitempty"`
	TotalWallNS int64              `json:"total_wall_ns"`
}

// ShardScalingStats measures ingest throughput through the batching
// router at increasing shard counts on one fixed out-of-order
// workload. The win on a single CPU is batching amortization, not
// parallelism: a shard's 256-rating batch covers a longer stretch of
// the submission stream as shards grow, so each object's sorted
// history is re-merged correspondingly fewer times. The section runs
// at GOMAXPROCS = NumCPU (recorded per section) so multi-core boxes
// also measure the parallel win.
type ShardScalingStats struct {
	Ratings     int                `json:"ratings"`
	Objects     int                `json:"objects"`
	BatchSize   int                `json:"batch_size"`
	SubmitChunk int                `json:"submit_chunk"`
	Submitters  int                `json:"submitters"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Configs     []ShardConfigStats `json:"configs"`
	SpeedupAt4  float64            `json:"speedup_at_4"`
	WallNS      int64              `json:"wall_ns"`
}

// ShardConfigStats is one shard count's ingest measurement.
type ShardConfigStats struct {
	Shards        int     `json:"shards"`
	WallNS        int64   `json:"wall_ns"`
	RatingsPerSec float64 `json:"ratings_per_sec"`
}

// TelemetryStats compares the instrumented ProcessWindow pipeline
// against the no-op (nil registry) path on the same workload.
type TelemetryStats struct {
	Reps            int     `json:"reps"`
	BaselineWallNS  int64   `json:"baseline_wall_ns"`
	TelemetryWallNS int64   `json:"telemetry_wall_ns"`
	OverheadPercent float64 `json:"overhead_percent"`
}

// WALReplayStats measures crash-recovery throughput: how fast a
// write-ahead log of accepted ratings is read back, checksum-verified,
// decoded, and re-applied at startup through shard.Recover.
type WALReplayStats struct {
	Records       int     `json:"records"`
	WallNS        int64   `json:"wall_ns"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// ExperimentStats is one experiment's measurement.
type ExperimentStats struct {
	ID         string `json:"id"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		runID      = fs.String("run", "all", "experiment ID to measure, or \"all\"")
		seed       = fs.Int64("seed", 1, "top-level random seed")
		workers    = fs.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
		out        = fs.String("out", "BENCH_10.json", "output path, or \"-\" for stdout")
		walRecs    = fs.Int("walrecords", 50000, "WAL records for the recovery-replay benchmark (0 skips it)")
		telReps    = fs.Int("telemetryreps", 20, "ProcessWindow repetitions for the telemetry-overhead benchmark (0 skips it)")
		shardRecs  = fs.Int("shardratings", 480000, "ratings for the shard-scaling ingest benchmark (0 skips it)")
		serveRecs  = fs.Int("servingratings", 240000, "ratings for the HTTP serving benchmark (0 skips it)")
		replRecs   = fs.Int("replratings", 120000, "ratings for the replication catch-up/lag benchmark (0 skips it)")
		clusterRec = fs.Int("clusterratings", 120000, "ratings for the partitioned-cluster routing benchmark (0 skips it)")
		detMode    = fs.String("detection", "quick", "detector×attack matrix fidelity: quick or full (empty skips it)")
		streamAtt  = fs.String("streamattacks", "constant,camouflage,on-off,ramp,trust-then-strike,sybil,whitewash,rotating,oscillate", "comma-separated zoo attacks for the streaming detection-latency benchmark (empty skips it)")
		streamRecs = fs.Int("streamratings", 240000, "ratings for the streaming ingest-overhead benchmark (0 skips it)")
		minSpeed4  = fs.Float64("minspeedup4", 0, "fail unless shard_scaling.speedup_at_4 reaches this floor (0 disables)")
		maxSLat    = fs.Float64("maxstreamlatency", 0, "fail if any batch-detected attack's streaming latency exceeds this many days (0 disables)")
		maxSOver   = fs.Float64("maxstreamoverhead", 0, "fail if streaming ingest overhead exceeds this percent (0 disables)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the measured sections to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchreport: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchreport: memprofile:", err)
			}
		}()
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}

	report := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Workers(*workers),
		Mode:       "quick",
		Seed:       *seed,
	}
	opt := experiments.Options{Workers: *workers}
	for _, id := range ids {
		stats, err := measure(id, *seed, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		report.Experiments = append(report.Experiments, stats)
		report.TotalWallNS += stats.WallNS
	}

	if *walRecs > 0 {
		stats, err := measureWALReplay(*walRecs, *seed)
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		report.WALReplay = &stats
		report.TotalWallNS += stats.WallNS
	}

	if *telReps > 0 {
		stats, err := measureTelemetryOverhead(*telReps, *seed)
		if err != nil {
			return fmt.Errorf("telemetry overhead: %w", err)
		}
		report.Telemetry = &stats
		report.TotalWallNS += stats.BaselineWallNS + stats.TelemetryWallNS
	}

	// The ingest-path sections run at GOMAXPROCS = NumCPU (restored
	// afterwards) so multi-core boxes measure the parallel win too; the
	// setting used is recorded per section.
	if *shardRecs > 0 {
		if err := atNumCPU(func() error {
			stats, err := measureShardScaling(*shardRecs, *seed)
			if err != nil {
				return fmt.Errorf("shard scaling: %w", err)
			}
			report.ShardScale = &stats
			report.TotalWallNS += stats.WallNS
			return nil
		}); err != nil {
			return err
		}
		// The committed regression floor (see `make bench-quick`): a
		// change that drags the 4-shard batching win below it fails the
		// run outright instead of silently shipping a slower report.
		if *minSpeed4 > 0 && report.ShardScale.SpeedupAt4 < *minSpeed4 {
			return fmt.Errorf("shard scaling: speedup_at_4 %.2f below committed floor %.2f",
				report.ShardScale.SpeedupAt4, *minSpeed4)
		}
	}

	if *serveRecs > 0 {
		if err := atNumCPU(func() error {
			stats, err := measureServing(*serveRecs, *seed)
			if err != nil {
				return fmt.Errorf("serving: %w", err)
			}
			report.Serving = &stats
			report.TotalWallNS += stats.WallNS
			return nil
		}); err != nil {
			return err
		}
	}

	if *replRecs > 0 {
		if err := atNumCPU(func() error {
			stats, err := measureReplication(*replRecs, *seed)
			if err != nil {
				return fmt.Errorf("replication: %w", err)
			}
			report.Replication = &stats
			report.TotalWallNS += stats.WallNS
			return nil
		}); err != nil {
			return err
		}
	}

	if *clusterRec > 0 {
		if err := atNumCPU(func() error {
			stats, err := measureCluster(*clusterRec, *seed)
			if err != nil {
				return fmt.Errorf("cluster: %w", err)
			}
			report.Cluster = &stats
			report.TotalWallNS += stats.WallNS
			return nil
		}); err != nil {
			return err
		}
	}

	if *streamAtt != "" || *streamRecs > 0 {
		var stats StreamingStats
		began := time.Now()
		if *streamAtt != "" {
			lat, err := measureStreamLatency(splitList(*streamAtt), *seed)
			if err != nil {
				return fmt.Errorf("streaming latency: %w", err)
			}
			stats.Latency = lat
		}
		if *streamRecs > 0 {
			if err := atNumCPU(func() error {
				ingest, err := measureStreamIngest(*streamRecs, *seed)
				if err != nil {
					return fmt.Errorf("streaming ingest: %w", err)
				}
				stats.Ingest = &ingest
				return nil
			}); err != nil {
				return err
			}
		}
		stats.WallNS = time.Since(began).Nanoseconds()
		report.Streaming = &stats
		report.TotalWallNS += stats.WallNS

		// The committed streaming regression floors (see `make
		// bench-quick`): the online path must not lose an attack the
		// batch path catches, must not detect later than the pinned
		// bound on anything it does catch, and must not tax ingest
		// beyond the pinned overhead.
		if *maxSLat > 0 {
			for _, l := range stats.Latency {
				if l.BatchDetected && !l.StreamDetected {
					return fmt.Errorf("streaming latency: %s: batch detects but streaming does not", l.Attack)
				}
				if l.StreamDetected && l.StreamLatencyDays > *maxSLat {
					return fmt.Errorf("streaming latency: %s: %.1f days above committed floor %.1f",
						l.Attack, l.StreamLatencyDays, *maxSLat)
				}
			}
		}
		if *maxSOver > 0 && stats.Ingest != nil && stats.Ingest.OverheadPercent > *maxSOver {
			return fmt.Errorf("streaming ingest: overhead %.1f%% above committed floor %.1f%%",
				stats.Ingest.OverheadPercent, *maxSOver)
		}
	}

	if *detMode != "" {
		stats, err := measureDetection(*detMode, *seed, opt)
		if err != nil {
			return fmt.Errorf("detection: %w", err)
		}
		report.Detection = &stats
		report.TotalWallNS += stats.WallNS
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// splitList parses a comma-separated flag value, dropping empty and
// surrounding-space-only elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// atNumCPU runs f with GOMAXPROCS raised to the machine's CPU count
// and restores the previous setting afterwards.
func atNumCPU(f func() error) error {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// measureWALReplay writes n ratings through a one-shard journal and
// stops it without a final snapshot, as a crash would (setup,
// untimed), then times the startup a restarting `ratingd -shards 1`
// runs: journal.Open, which opens the log, verifies and decodes every
// frame, and replays it through shard.Recover into a fresh engine.
func measureWALReplay(n int, seed int64) (WALReplayStats, error) {
	dir, err := os.MkdirTemp("", "benchwal")
	if err != nil {
		return WALReplayStats{}, err
	}
	defer os.RemoveAll(dir)

	cfg := journal.Config{Dir: dir, WAL: wal.Options{Policy: wal.SyncNever}}
	engine, err := shard.NewEngine(core.Config{}, 1)
	if err != nil {
		return WALReplayStats{}, err
	}
	j, _, err := journal.Open(engine, cfg)
	if err != nil {
		return WALReplayStats{}, err
	}
	rng := randx.New(seed)
	const batch = 256
	rs := make([]rating.Rating, 0, batch)
	for i := 0; i < n; i++ {
		rs = append(rs, rating.Rating{
			Rater:  rating.RaterID(rng.Intn(500)),
			Object: rating.ObjectID(rng.Intn(50)),
			Value:  rng.Float64(),
			Time:   float64(i) * 1e-3,
		})
		if len(rs) == batch || i == n-1 {
			if err := j.SubmitAll(rs); err != nil {
				j.Abort()
				return WALReplayStats{}, err
			}
			rs = rs[:0]
		}
	}
	j.Abort() // SyncNever: closing the log makes it durable

	if engine, err = shard.NewEngine(core.Config{}, 1); err != nil {
		return WALReplayStats{}, err
	}
	began := time.Now()
	j, stats, err := journal.Open(engine, cfg)
	wall := time.Since(began)
	if err != nil {
		return WALReplayStats{}, err
	}
	j.Abort()
	if stats.Applied != n {
		return WALReplayStats{}, fmt.Errorf("replayed %d of %d records", stats.Applied, n)
	}
	return WALReplayStats{
		Records:       n,
		WallNS:        wall.Nanoseconds(),
		RecordsPerSec: float64(n) / wall.Seconds(),
	}, nil
}

// measureTelemetryOverhead times reps full ProcessWindow runs over the
// paper's illustrative attacked trace, once with per-stage telemetry
// live and once with a nil registry, interleaved to cancel thermal and
// GC drift. It reports the relative wall-time overhead.
func measureTelemetryOverhead(reps int, seed int64) (TelemetryStats, error) {
	labeled, err := sim.GenerateIllustrative(randx.New(seed), sim.DefaultIllustrative())
	if err != nil {
		return TelemetryStats{}, err
	}
	rs := sim.Ratings(labeled)

	metrics := core.NewMetrics(telemetry.NewRegistry())
	once := func(m *core.Metrics) (time.Duration, error) {
		sys, err := core.NewSystem(core.Config{Metrics: m})
		if err != nil {
			return 0, err
		}
		if err := sys.SubmitAll(rs); err != nil {
			return 0, err
		}
		began := time.Now()
		if _, err := sys.ProcessWindow(0, 60); err != nil {
			return 0, err
		}
		return time.Since(began), nil
	}
	// Warm up both paths once before timing.
	if _, err := once(nil); err != nil {
		return TelemetryStats{}, err
	}
	if _, err := once(metrics); err != nil {
		return TelemetryStats{}, err
	}
	var base, tel time.Duration
	for i := 0; i < reps; i++ {
		d, err := once(nil)
		if err != nil {
			return TelemetryStats{}, err
		}
		base += d
		if d, err = once(metrics); err != nil {
			return TelemetryStats{}, err
		}
		tel += d
	}
	return TelemetryStats{
		Reps:            reps,
		BaselineWallNS:  base.Nanoseconds(),
		TelemetryWallNS: tel.Nanoseconds(),
		OverheadPercent: 100 * (tel.Seconds() - base.Seconds()) / base.Seconds(),
	}, nil
}

// measureShardScaling times ingesting one fixed stream of
// time-jittered ratings through the router at 1, 2, 4, and 8 shards.
// Submissions arrive as small chunks from concurrent clients — the
// shape under which per-shard group commit earns its keep — and every
// configuration must ingest the identical stream completely.
func measureShardScaling(n int, seed int64) (ShardScalingStats, error) {
	const (
		objects     = 48
		raters      = 512
		batchSize   = 256
		submitChunk = 256
		submitters  = 32
	)
	rng := randx.New(seed)
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(raters) + 1),
			Object: rating.ObjectID(rng.Intn(objects)),
			Value:  rng.Float64(),
			// Arrival order deliberately scrambled relative to event
			// time, so every flush merges into the middle of history.
			Time: rng.Float64() * 365,
		}
	}
	stats := ShardScalingStats{
		Ratings: n, Objects: objects,
		BatchSize: batchSize, SubmitChunk: submitChunk, Submitters: submitters,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var base time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		engine, err := shard.NewEngine(core.Config{}, shards)
		if err != nil {
			return stats, err
		}
		router, err := shard.NewRouter(shard.RouterConfig{
			Shards:    shards,
			BatchSize: batchSize,
			Flush:     engine.SubmitShard,
		})
		if err != nil {
			return stats, err
		}
		runtime.GC()
		began := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					lo := int(next.Add(submitChunk)) - submitChunk
					if lo >= n {
						return
					}
					hi := lo + submitChunk
					if hi > n {
						hi = n
					}
					if err := router.Submit(rs[lo:hi]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := router.Flush(); err != nil {
			return stats, err
		}
		wall := time.Since(began)
		if err := router.Close(); err != nil {
			return stats, err
		}
		for _, err := range errs {
			if err != nil {
				return stats, err
			}
		}
		if got := engine.Len(); got != n {
			return stats, fmt.Errorf("%d shards: ingested %d of %d ratings", shards, got, n)
		}
		if shards == 1 {
			base = wall
		} else if shards == 4 && base > 0 {
			stats.SpeedupAt4 = base.Seconds() / wall.Seconds()
		}
		stats.Configs = append(stats.Configs, ShardConfigStats{
			Shards:        shards,
			WallNS:        wall.Nanoseconds(),
			RatingsPerSec: float64(n) / wall.Seconds(),
		})
		stats.WallNS += wall.Nanoseconds()
	}
	return stats, nil
}

// measure runs one experiment and reports its wall time and the heap
// traffic it caused. A GC fence before each side of the MemStats read
// keeps other experiments' garbage out of the deltas; alloc counters in
// MemStats are monotone, so the subtraction is exact.
func measure(id string, seed int64, opt experiments.Options) (ExperimentStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	if _, err := experiments.RunWith(id, seed, experiments.Quick, opt); err != nil {
		return ExperimentStats{}, err
	}
	wall := time.Since(began)
	runtime.ReadMemStats(&after)
	return ExperimentStats{
		ID:         id,
		WallNS:     wall.Nanoseconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Allocs:     after.Mallocs - before.Mallocs,
	}, nil
}
