package server

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/telemetry"
)

// cachedPair builds two servers over identically-seeded backends, one
// with the read cache and one without, both instrumented.
func cachedPair(t *testing.T) (cached, uncached *Client, reg *telemetry.Registry) {
	t.Helper()
	reg = telemetry.NewRegistry()
	mk := func(opts ...Option) *Client {
		srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return NewClient(ts.URL, ts.Client())
	}
	return mk(WithTelemetry(reg)), mk(WithReadCache(-1)), reg
}

// cacheCounter reads one read-cache counter child; registration is
// idempotent, so this resolves the server's own metric family.
func cacheCounter(reg *telemetry.Registry, kind, result string) uint64 {
	return reg.CounterVec("http_read_cache_total", "", "kind", "result").With(kind, result).Value()
}

// TestReadCacheConformance drives an interleaved workload through a
// cached and an uncached server and requires every read answer to be
// bit-identical — the cache must be invisible except in latency.
func TestReadCacheConformance(t *testing.T) {
	cached, uncached, _ := cachedPair(t)
	ctx := context.Background()
	rng := randx.New(99)

	step := func(do func(c *Client) (string, error)) {
		a, errA := do(cached)
		b, errB := do(uncached)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("cached err %v, uncached err %v", errA, errB)
		}
		if a != b {
			t.Fatalf("cached answer %q != uncached %q", a, b)
		}
	}

	for i := 0; i < 400; i++ {
		switch rng.Intn(5) {
		case 0: // submit a small batch
			batch := []api.RatingPayload{{
				Rater:  rng.Intn(20) + 1,
				Object: rng.Intn(4),
				Value:  math.Round(rng.Float64()*100) / 100,
				Time:   float64(i),
			}}
			step(func(c *Client) (string, error) {
				n, err := c.Submit(ctx, batch)
				return fmt.Sprint(n), err
			})
		case 1: // read an aggregate (often repeatedly → cache hits)
			obj := rng.Intn(4)
			step(func(c *Client) (string, error) {
				agg, err := c.Aggregate(ctx, obj)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%+v|%x", agg, math.Float64bits(agg.Value)), nil
			})
		case 2: // malicious list
			step(func(c *Client) (string, error) {
				ids, err := c.Malicious(ctx)
				return fmt.Sprint(ids), err
			})
		case 3: // stats (uncached route, sanity anchor)
			step(func(c *Client) (string, error) {
				st, err := c.Stats(ctx)
				return fmt.Sprintf("%+v", st), err
			})
		case 4: // occasional maintenance window rewrites trust
			if i%50 != 0 || i == 0 {
				continue
			}
			step(func(c *Client) (string, error) {
				rep, err := c.Process(ctx, 0, float64(i))
				return fmt.Sprintf("%+v", rep), err
			})
		}
	}
}

// TestReadCachePrecision asserts the invalidation scope: a submit to
// object A must drop only A's aggregate; B's next read is still a hit.
// A process pass must drop everything.
func TestReadCachePrecision(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	seed := []api.RatingPayload{
		{Rater: 1, Object: 0, Value: 0.4, Time: 1},
		{Rater: 2, Object: 0, Value: 0.6, Time: 2},
		{Rater: 1, Object: 1, Value: 0.9, Time: 1},
		{Rater: 2, Object: 1, Value: 0.7, Time: 2},
	}
	if _, err := client.Submit(ctx, seed); err != nil {
		t.Fatal(err)
	}

	hits := func() uint64 {
		return cacheCounter(reg, "aggregate", "hit")
	}
	read := func(obj int) {
		t.Helper()
		if _, err := client.Aggregate(ctx, obj); err != nil {
			t.Fatal(err)
		}
	}

	read(0) // miss, fills
	read(1) // miss, fills
	base := hits()
	read(0)
	read(1)
	if got := hits(); got != base+2 {
		t.Fatalf("warm reads: hits %v -> %v, want +2", base, got)
	}

	// Submit to object 0: only object 0's entry drops.
	if _, err := client.Submit(ctx, []api.RatingPayload{{Rater: 3, Object: 0, Value: 0.5, Time: 3}}); err != nil {
		t.Fatal(err)
	}
	base = hits()
	read(1) // still cached
	if got := hits(); got != base+1 {
		t.Fatalf("object 1 lost its entry to an object-0 submit (hits %v -> %v)", base, got)
	}
	base = hits()
	read(0) // invalidated: refill, no hit
	if got := hits(); got != base {
		t.Fatalf("object 0 served stale cache after submit (hits %v -> %v)", base, got)
	}

	// A maintenance window drops everything.
	read(0)
	if _, err := client.Process(ctx, 0, 10); err != nil {
		t.Fatal(err)
	}
	base = hits()
	read(0)
	read(1)
	if got := hits(); got != base {
		t.Fatalf("process left aggregate entries cached (hits %v -> %v)", base, got)
	}
}

// TestReadCacheStaleFillDiscarded unit-tests the generation protocol:
// a fill whose object was invalidated mid-computation must be dropped.
func TestReadCacheStaleFillDiscarded(t *testing.T) {
	c := newReadCache(8)
	obj := rating.ObjectID(1)

	gen := c.snapshotGen(obj)
	// An invalidation lands between snapshot and store.
	c.invalidateRatings([]rating.Rating{{Rater: 1, Object: obj, Value: 0.5, Time: 1}})
	c.storeAggregate(obj, core.AggregateResult{Object: obj, Value: 0.9}, gen)
	if _, ok := c.aggregate(obj, nil); ok {
		t.Fatal("stale fill was cached")
	}

	// A fresh fill with a current generation sticks.
	gen = c.snapshotGen(obj)
	c.storeAggregate(obj, core.AggregateResult{Object: obj, Value: 0.9}, gen)
	if res, ok := c.aggregate(obj, nil); !ok || res.Value != 0.9 {
		t.Fatalf("fresh fill not cached: %+v %v", res, ok)
	}

	// invalidateAll also kills in-flight malicious fills.
	mgen := c.snapshotGlobalGen()
	c.invalidateAll()
	c.storeMalicious([]rating.RaterID{3}, mgen)
	if _, ok := c.malicious(nil); ok {
		t.Fatal("stale malicious fill was cached")
	}
}

// TestReadCacheEvictionBound keeps the aggregate map at its cap.
func TestReadCacheEvictionBound(t *testing.T) {
	c := newReadCache(4)
	for i := 0; i < 64; i++ {
		obj := rating.ObjectID(i)
		c.storeAggregate(obj, core.AggregateResult{Object: obj}, c.snapshotGen(obj))
	}
	c.mu.Lock()
	n := len(c.agg)
	c.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, cap 4", n)
	}
}

// TestReadCacheNilSafe: a disabled cache (nil pointer) must be inert.
func TestReadCacheNilSafe(t *testing.T) {
	var c *readCache
	if _, ok := c.aggregate(1, nil); ok {
		t.Fatal("nil cache hit")
	}
	c.storeAggregate(1, core.AggregateResult{}, c.snapshotGen(1))
	c.invalidateRatings([]rating.Rating{{Object: 1}})
	c.invalidateObjectList([]rating.ObjectID{1})
	c.invalidateAll()
	if _, ok := c.malicious(nil); ok {
		t.Fatal("nil cache malicious hit")
	}
	c.storeMalicious(nil, c.snapshotGlobalGen())
}
