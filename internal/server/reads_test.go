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
)

// engineServer serves a shard.Engine, the backend ratingd runs.
func engineServer(t *testing.T, shards int) *Client {
	t.Helper()
	engine, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, engine)
}

func serve(t *testing.T, backend Backend) *Client {
	t.Helper()
	srv, err := NewWith(backend)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// oracleBackend serves the core.System oracle, whose reads cannot
// fail, as a Backend.
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

// TestReadCacheConformance drives an interleaved workload — submits,
// windows and snapshot restores between reads — through a server over
// a two-shard engine and one over core.System, and requires every
// answer to be bit-identical.
func TestReadCacheConformance(t *testing.T) {
	engine := engineServer(t, 2)
	sys, err := core.NewSystem(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	oracle := serve(t, oracleBackend{sys})
	ctx := context.Background()
	rng := randx.New(99)

	step := func(do func(c *Client) (string, error)) {
		a, errA := do(engine)
		b, errB := do(oracle)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("engine err %v, oracle err %v", errA, errB)
		}
		if a != b {
			t.Fatalf("engine answer %q != oracle %q", a, b)
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
		case 3, 4, 5: // read an aggregate, often repeatedly
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
}
