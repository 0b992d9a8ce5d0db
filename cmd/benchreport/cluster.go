package main

// The cluster section prices the partitioned serving tier: the same
// rating stream is ingested once through a plain single-node daemon
// and once through the routing proxy fronting a three-member cluster
// (every request crosses one extra HTTP hop to its keyspace owner),
// then the scatter-gather read paths and the scan/apply window
// exchange are timed against the member set.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trust"
)

// ClusterStats measures the routing tier against direct single-node
// serving on one fixed workload.
type ClusterStats struct {
	Ratings     int `json:"ratings"`
	Nodes       int `json:"nodes"`
	ShardsPer   int `json:"shards_per_node"`
	SubmitChunk int `json:"submit_chunk"`
	Submitters  int `json:"submitters"`
	GOMAXPROCS  int `json:"gomaxprocs"`

	// Ingest: identical stream, direct vs through the router's
	// owner-forwarding hop.
	DirectWallNS        int64   `json:"direct_wall_ns"`
	DirectRatingsPerSec float64 `json:"direct_ratings_per_sec"`
	RouterWallNS        int64   `json:"router_wall_ns"`
	RouterRatingsPerSec float64 `json:"router_ratings_per_sec"`
	IngestOverheadPct   float64 `json:"ingest_overhead_percent"`

	// One maintenance window through the scan/apply exchange: every
	// member scanned, evidence folded, trust broadcast back.
	WindowExchangeNS int64 `json:"window_exchange_ns"`

	// Scatter-gather read latency across the member set.
	ReadReps            int   `json:"read_reps"`
	ScatterStatsNSPerOp int64 `json:"scatter_stats_ns_per_op"`
	ScatterMalicNSPerOp int64 `json:"scatter_malicious_ns_per_op"`

	WallNS int64 `json:"wall_ns"`
}

// clusterIngest pushes the stream through one base URL from
// concurrent chunked submitters, the same shape as the shard-scaling
// section.
func clusterIngest(base string, rs []rating.Rating, chunk, submitters int) (time.Duration, error) {
	client := server.NewClient(base, nil)
	ctx := context.Background()
	began := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]api.RatingPayload, 0, chunk)
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(rs) {
					return
				}
				hi := lo + chunk
				if hi > len(rs) {
					hi = len(rs)
				}
				payload = payload[:0]
				for _, r := range rs[lo:hi] {
					payload = append(payload, api.RatingPayload{
						Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
					})
				}
				if _, err := client.Submit(ctx, payload); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(began)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

// startBenchMember assembles one in-process cluster member: engine,
// membership, server. Returned closer shuts the test server down.
func startBenchMember(table cluster.Table, selfURL string, shards int, swap func(http.Handler)) error {
	engine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		return err
	}
	member, err := cluster.NewMember(table, selfURL, engine)
	if err != nil {
		return err
	}
	srv, err := server.NewWith(engine,
		server.WithCluster(member),
		server.WithFeatures(api.DiscoveryFeatures{StreamIngest: true, Cluster: true}),
	)
	if err != nil {
		return err
	}
	member.SetOnApply(srv.InvalidateAll)
	mux := http.NewServeMux()
	member.Routes(mux)
	mux.Handle("/", srv)
	swap(mux)
	return nil
}

// measureCluster runs the full section: direct ingest baseline,
// routed ingest, one window exchange, and the scatter-gather reads.
func measureCluster(n int, seed int64) (stats ClusterStats, err error) {
	const (
		nodes       = 3
		shardsPer   = 2
		objects     = 48
		raters      = 512
		submitChunk = 256
		submitters  = 16
		readReps    = 200
	)
	rng := randx.New(seed)
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(raters) + 1),
			Object: rating.ObjectID(rng.Intn(objects)),
			Value:  rng.Float64(),
			Time:   rng.Float64() * 365,
		}
	}
	stats = ClusterStats{
		Ratings: n, Nodes: nodes, ShardsPer: shardsPer,
		SubmitChunk: submitChunk, Submitters: submitters,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ReadReps:   readReps,
	}
	began := time.Now()
	defer func() { stats.WallNS = time.Since(began).Nanoseconds() }()

	// Direct baseline: one node, no routing hop.
	directEngine, err := shard.NewEngine(core.Config{}, shardsPer)
	if err != nil {
		return stats, err
	}
	directSrv, err := server.NewWith(directEngine)
	if err != nil {
		return stats, err
	}
	direct := httptest.NewServer(directSrv)
	defer direct.Close()
	wall, err := clusterIngest(direct.URL, rs, submitChunk, submitters)
	if err != nil {
		return stats, fmt.Errorf("direct ingest: %w", err)
	}
	stats.DirectWallNS = wall.Nanoseconds()
	stats.DirectRatingsPerSec = float64(n) / wall.Seconds()

	// The cluster: stable-URL members behind handler slots, the router
	// in front.
	handlers := make([]atomic.Pointer[http.Handler], nodes)
	members := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range members {
		i := i
		members[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i].Load()).ServeHTTP(w, r)
		}))
		defer members[i].Close()
		var placeholder http.Handler = http.NotFoundHandler()
		handlers[i].Store(&placeholder)
		urls[i] = members[i].URL
	}
	table, err := cluster.EvenTable(1, urls)
	if err != nil {
		return stats, err
	}
	for i := range members {
		i := i
		if err := startBenchMember(table, urls[i], shardsPer, func(h http.Handler) {
			handlers[i].Store(&h)
		}); err != nil {
			return stats, err
		}
	}
	rt, err := cluster.NewRouter(table, cluster.RouterConfig{Trust: &trust.ManagerConfig{}})
	if err != nil {
		return stats, err
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	wall, err = clusterIngest(front.URL, rs, submitChunk, submitters)
	if err != nil {
		return stats, fmt.Errorf("routed ingest: %w", err)
	}
	stats.RouterWallNS = wall.Nanoseconds()
	stats.RouterRatingsPerSec = float64(n) / wall.Seconds()
	stats.IngestOverheadPct = 100 * (wall.Seconds() - float64(stats.DirectWallNS)/1e9) / (float64(stats.DirectWallNS) / 1e9)

	// One full scan/apply window exchange across the member set.
	client := server.NewClient(front.URL, nil)
	ctx := context.Background()
	wBegan := time.Now()
	if _, err := client.Process(ctx, 0, 365); err != nil {
		return stats, fmt.Errorf("window exchange: %w", err)
	}
	stats.WindowExchangeNS = time.Since(wBegan).Nanoseconds()

	// Scatter-gather reads: merged stats and the k-way malicious merge.
	rBegan := time.Now()
	for i := 0; i < readReps; i++ {
		if _, err := client.Stats(ctx); err != nil {
			return stats, fmt.Errorf("scatter stats: %w", err)
		}
	}
	stats.ScatterStatsNSPerOp = time.Since(rBegan).Nanoseconds() / readReps
	rBegan = time.Now()
	for i := 0; i < readReps; i++ {
		if _, err := client.Malicious(ctx); err != nil {
			return stats, fmt.Errorf("scatter malicious: %w", err)
		}
	}
	stats.ScatterMalicNSPerOp = time.Since(rBegan).Nanoseconds() / readReps
	return stats, nil
}
