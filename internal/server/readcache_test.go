package server

import (
	"bytes"
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
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// cachedServer serves a shard.Engine with its read cache counters on
// reg, the way ratingd wires it.
func cachedServer(t *testing.T, shards int, reg *telemetry.Registry) *Client {
	t.Helper()
	engine, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, shards)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetMetrics(shard.NewMetrics(reg, shards))
	return serve(t, engine, WithTelemetry(reg))
}

func serve(t *testing.T, backend Backend, opts ...Option) *Client {
	t.Helper()
	srv, err := NewWith(backend, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// oracleBackend serves the core.System oracle, which caches nothing
// and whose reads cannot fail, as a Backend.
type oracleBackend struct{ *core.System }

func (o oracleBackend) TrustIn(id rating.RaterID) (float64, error) {
	return o.System.TrustIn(id), nil
}

func (o oracleBackend) MaliciousRaters() ([]rating.RaterID, error) {
	return o.System.MaliciousRaters(), nil
}

func (o oracleBackend) Stats(bounds []float64) (shard.Stats, error) {
	st := shard.Stats{Ratings: o.Len(), Raters: o.RaterCount(), Malicious: len(o.System.MaliciousRaters())}
	if len(bounds) > 0 {
		st.Distribution = o.TrustDistribution(bounds)
	}
	return st, nil
}

// cacheCounter reads one read cache counter child; registration is
// idempotent, so this resolves the engine's own metric family.
func cacheCounter(reg *telemetry.Registry, kind, result string) uint64 {
	return reg.CounterVec("http_read_cache_total", "", "kind", "result").With(kind, result).Value()
}

// TestReadCacheConformance drives an interleaved workload — submits,
// windows and snapshot restores between reads — through a server over
// a two-shard engine and one over core.System, which caches nothing,
// and requires every answer to be bit-identical: the engine's cache
// must be invisible except in latency.
func TestReadCacheConformance(t *testing.T) {
	reg := telemetry.NewRegistry()
	cached := cachedServer(t, 2, reg)
	sys, err := core.NewSystem(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	oracle := serve(t, oracleBackend{sys})
	ctx := context.Background()
	rng := randx.New(99)

	step := func(do func(c *Client) (string, error)) {
		a, errA := do(cached)
		b, errB := do(oracle)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("cached err %v, oracle err %v", errA, errB)
		}
		if a != b {
			t.Fatalf("cached answer %q != oracle %q", a, b)
		}
	}

	var saved []byte // a snapshot to restore, taken earlier in the walk
	for i := 0; i < 400; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // submit a small batch
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
		case 3, 4, 5: // read an aggregate (often repeatedly → cache hits)
			obj := rng.Intn(4)
			step(func(c *Client) (string, error) {
				agg, err := c.Aggregate(ctx, obj)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%+v|%x", agg, math.Float64bits(agg.Value)), nil
			})
		case 6: // malicious list
			step(func(c *Client) (string, error) {
				ids, err := c.Malicious(ctx)
				return fmt.Sprint(ids), err
			})
		case 7: // stats
			step(func(c *Client) (string, error) {
				st, err := c.Stats(ctx)
				return fmt.Sprintf("%+v", st), err
			})
		case 8: // a maintenance window rewrites trust
			step(func(c *Client) (string, error) {
				rep, err := c.Process(ctx, 0, float64(i+1))
				return fmt.Sprintf("%+v", rep), err
			})
		case 9: // save the state, or restore the one saved earlier
			if saved == nil {
				var buf bytes.Buffer
				if err := oracle.Snapshot(ctx, &buf); err != nil {
					t.Fatal(err)
				}
				saved = buf.Bytes()
				continue
			}
			step(func(c *Client) (string, error) {
				return "", c.Restore(ctx, bytes.NewReader(saved))
			})
			saved = nil
		}
	}
	if cacheCounter(reg, "aggregate", "hit") == 0 || cacheCounter(reg, "malicious", "hit") == 0 {
		t.Fatal("the walk never hit the cache: it proves nothing")
	}
}

// TestReadCachePrecision asserts the scope of each stamp: a submit to
// object A stales only A's aggregate (its rating count moved), so B's
// next read is still a hit; a window moves the trust generation and
// stales every entry.
func TestReadCachePrecision(t *testing.T) {
	reg := telemetry.NewRegistry()
	client := cachedServer(t, 1, reg)
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

	// Submit to object 0: only object 0's entry goes stale.
	if _, err := client.Submit(ctx, []api.RatingPayload{{Rater: 3, Object: 0, Value: 0.5, Time: 3}}); err != nil {
		t.Fatal(err)
	}
	base = hits()
	read(1) // still cached
	if got := hits(); got != base+1 {
		t.Fatalf("object 1 lost its entry to an object-0 submit (hits %v -> %v)", base, got)
	}
	base = hits()
	read(0) // stale: recomputed, no hit
	if got := hits(); got != base {
		t.Fatalf("object 0 served stale cache after submit (hits %v -> %v)", base, got)
	}

	// A maintenance window stales everything.
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
