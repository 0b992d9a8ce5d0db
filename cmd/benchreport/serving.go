package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
)

// ServingStats measures the HTTP serving layer introduced with the v1
// wire contract: bulk NDJSON streaming ingest against chunked unary
// POSTs (both over real loopback HTTP, 4 shards), and the read cache
// against recomputation on the aggregate endpoint (handler path, no
// socket, so the comparison isolates compute). CacheConformant
// records that every cached response byte-matched the uncached one
// before timing started.
type ServingStats struct {
	Ratings     int `json:"ratings"`
	Objects     int `json:"objects"`
	Shards      int `json:"shards"`
	StreamConns int `json:"stream_conns"`
	UnaryChunk  int `json:"unary_chunk"`
	Submitters  int `json:"submitters"`
	GOMAXPROCS  int `json:"gomaxprocs"`

	UnaryWallNS   int64   `json:"unary_wall_ns"`
	UnaryPerSec   float64 `json:"unary_ratings_per_sec"`
	StreamWallNS  int64   `json:"stream_wall_ns"`
	StreamPerSec  float64 `json:"stream_ratings_per_sec"`
	StreamSpeedup float64 `json:"stream_speedup"`

	UncachedReads   int     `json:"uncached_reads"`
	UncachedWallNS  int64   `json:"uncached_wall_ns"`
	UncachedPerSec  float64 `json:"uncached_reads_per_sec"`
	CachedReads     int     `json:"cached_reads"`
	CachedWallNS    int64   `json:"cached_wall_ns"`
	CachedPerSec    float64 `json:"cached_reads_per_sec"`
	CacheSpeedup    float64 `json:"cache_speedup"`
	CacheConformant bool    `json:"cache_conformant"`

	WallNS int64 `json:"wall_ns"`
}

// newServingBackend builds a sharded engine fronted by the daemon's
// journal (no WAL: this benchmark isolates protocol cost, not fsync
// cost) and an HTTP server, the daemon's deployment shape.
func newServingBackend(shards int, opts ...server.Option) (*shard.Engine, *journal.Journal, *httptest.Server, error) {
	engine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		return nil, nil, nil, err
	}
	j, _, err := journal.Open(engine, journal.Config{BatchSize: 256})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.NewWith(engine, append([]server.Option{server.WithJournal(j)}, opts...)...)
	if err != nil {
		j.Abort()
		return nil, nil, nil, err
	}
	return engine, j, httptest.NewServer(srv), nil
}

// measureServing times the streaming-vs-unary ingest paths and the
// cached-vs-uncached read path.
func measureServing(n int, seed int64) (ServingStats, error) {
	const (
		objects     = 8 // few objects -> long histories -> real aggregate cost
		raters      = 512
		shards      = 4
		unaryChunk  = 16
		submitters  = 32
		streamConns = 4
		readReqs    = 20000
		readBudget  = 3 * time.Second // cap per read loop; uncached recompute is slow by design
	)
	stats := ServingStats{
		Ratings: n, Objects: objects, Shards: shards,
		StreamConns: streamConns, UnaryChunk: unaryChunk, Submitters: submitters,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rng := randx.New(seed)
	rs := make([]rating.Rating, n)
	for i := range rs {
		// Client-shaped precision: scores on a millistep grid and times
		// at microday (~0.1s) granularity, the decimal widths real
		// submitters produce — not the 17-significant-digit artifacts of
		// a raw Float64, which no rating client emits.
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(raters) + 1),
			Object: rating.ObjectID(rng.Intn(objects)),
			Value:  math.Round(rng.Float64()*1000) / 1000,
			Time:   math.Round(rng.Float64()*365*1e6) / 1e6,
		}
	}
	ctx := context.Background()

	// --- Unary ingest: concurrent chunked POSTs of JSON arrays. ---
	engine, j, ts, err := newServingBackend(shards)
	if err != nil {
		return stats, err
	}
	client := server.NewClient(ts.URL, ts.Client())
	payloads := make([]api.RatingPayload, n)
	for i, r := range rs {
		payloads[i] = api.RatingPayload{
			Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
		}
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
				lo := int(next.Add(unaryChunk)) - unaryChunk
				if lo >= n {
					return
				}
				hi := min(lo+unaryChunk, n)
				if _, err := client.Submit(ctx, payloads[lo:hi]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil { // drains the router
		return stats, err
	}
	unaryWall := time.Since(began)
	ts.Close()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	if got := engine.Len(); got != n {
		return stats, fmt.Errorf("unary ingest applied %d of %d", got, n)
	}
	stats.UnaryWallNS = unaryWall.Nanoseconds()
	stats.UnaryPerSec = float64(n) / unaryWall.Seconds()

	// --- Streaming ingest: the same ratings as NDJSON over a few
	// persistent connections. Bodies are rendered untimed. ---
	bodies := make([]*bytes.Reader, streamConns)
	per := (n + streamConns - 1) / streamConns
	for c := 0; c < streamConns; c++ {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		lo, hi := c*per, min((c+1)*per, n)
		for _, p := range payloads[lo:hi] {
			if err := enc.Encode(p); err != nil {
				return stats, err
			}
		}
		bodies[c] = bytes.NewReader(buf.Bytes())
	}
	engine, j, ts, err = newServingBackend(shards)
	if err != nil {
		return stats, err
	}
	client = server.NewClient(ts.URL, ts.Client())
	runtime.GC()
	began = time.Now()
	streamErrs := make([]error, streamConns)
	var swg sync.WaitGroup
	for c := 0; c < streamConns; c++ {
		swg.Add(1)
		go func(c int) {
			defer swg.Done()
			sum, rejects, err := client.SubmitStream(ctx, bodies[c])
			if err != nil {
				streamErrs[c] = err
				return
			}
			if len(rejects) != 0 || sum.Accepted != sum.Lines {
				streamErrs[c] = fmt.Errorf("stream conn %d: summary %+v, %d rejects", c, sum, len(rejects))
			}
		}(c)
	}
	swg.Wait()
	if err := j.Close(); err != nil {
		return stats, err
	}
	streamWall := time.Since(began)
	ts.Close()
	for _, err := range streamErrs {
		if err != nil {
			return stats, err
		}
	}
	if got := engine.Len(); got != n {
		return stats, fmt.Errorf("stream ingest applied %d of %d", got, n)
	}
	stats.StreamWallNS = streamWall.Nanoseconds()
	stats.StreamPerSec = float64(n) / streamWall.Seconds()
	stats.StreamSpeedup = unaryWall.Seconds() / streamWall.Seconds()

	// --- Read path: cached vs uncached aggregates over the ingested
	// state. Handler-level (no socket), isolating recompute cost. ---
	if _, err := engine.ProcessWindow(0, 365); err != nil {
		return stats, err
	}
	uncachedSrv, err := server.NewWith(engine, server.WithReadCache(-1))
	if err != nil {
		return stats, err
	}
	cachedSrv, err := server.NewWith(engine)
	if err != nil {
		return stats, err
	}
	get := func(s *server.Server, obj int) (int, []byte) {
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/objects/%d/aggregate", obj), nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes()
	}
	// Conformance gate before timing: cached answers must byte-match.
	stats.CacheConformant = true
	for obj := 0; obj < objects; obj++ {
		cu, bu := get(uncachedSrv, obj)
		cc, bc := get(cachedSrv, obj) // fill
		cc2, bc2 := get(cachedSrv, obj)
		if cu != cc || cc != cc2 || !bytes.Equal(bu, bc) || !bytes.Equal(bu, bc2) {
			stats.CacheConformant = false
			return stats, fmt.Errorf("object %d: cached response diverges (%d/%d/%d)", obj, cu, cc, cc2)
		}
	}
	// Each loop runs up to readReqs requests within a wall budget — the
	// uncached side recomputes the full aggregate per request, so at
	// long histories it measures far fewer iterations. Rates are
	// per-iteration-honest either way.
	bench := func(s *server.Server) (time.Duration, int) {
		runtime.GC()
		began := time.Now()
		i := 0
		for ; i < readReqs; i++ {
			if code, _ := get(s, i%objects); code != 200 {
				panic(fmt.Sprintf("read returned %d", code))
			}
			if i%objects == objects-1 && time.Since(began) > readBudget {
				i++
				break
			}
		}
		return time.Since(began), i
	}
	uncachedWall, uncachedReads := bench(uncachedSrv)
	cachedWall, cachedReads := bench(cachedSrv)
	stats.UncachedReads = uncachedReads
	stats.UncachedWallNS = uncachedWall.Nanoseconds()
	stats.UncachedPerSec = float64(uncachedReads) / uncachedWall.Seconds()
	stats.CachedReads = cachedReads
	stats.CachedWallNS = cachedWall.Nanoseconds()
	stats.CachedPerSec = float64(cachedReads) / cachedWall.Seconds()
	stats.CacheSpeedup = stats.CachedPerSec / stats.UncachedPerSec

	stats.WallNS = stats.UnaryWallNS + stats.StreamWallNS + stats.UncachedWallNS + stats.CachedWallNS
	return stats, nil
}
