package shard

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/shard/shardtest"
	"repro/internal/trust"
)

// The engine's read cache serves an answer only while the state it was
// computed from holds. Each test below reads, changes the state through
// exactly one path, and reads again: the second answer must equal an
// uncached oracle's and differ from the first, so a stale answer
// cannot pass.

// cachePair builds a two-shard engine and a core.System, which caches
// nothing, both fed rs.
func cachePair(t *testing.T, rs []rating.Rating) (*Engine, *core.System) {
	t.Helper()
	e, err := NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	if err := oracle.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	return e, oracle
}

// aggregator is the read both the engine and its oracles serve.
type aggregator interface {
	Aggregate(obj rating.ObjectID) (core.AggregateResult, error)
}

func mustAggregate(t *testing.T, sys aggregator, obj rating.ObjectID) core.AggregateResult {
	t.Helper()
	res, err := sys.Aggregate(obj)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireFresh reads obj from e twice (a miss, then a hit) and from
// the oracle: all three must agree bit for bit and differ from before.
func requireFresh(t *testing.T, e *Engine, oracle aggregator, obj rating.ObjectID, before core.AggregateResult) {
	t.Helper()
	want := mustAggregate(t, oracle, obj)
	for i := 0; i < 2; i++ {
		got := mustAggregate(t, e, obj)
		if got != want || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("read %d: engine served %+v, oracle %+v", i, got, want)
		}
	}
	if want == before {
		t.Fatalf("the change left object %d's aggregate at %+v: the test proves nothing", obj, before)
	}
}

// uncached is an engine seeded from e's state with an empty cache.
func uncached(t *testing.T, e *Engine) *Engine {
	t.Helper()
	fresh, err := NewEngine(core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.loadView(e.View()); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func TestEngineCacheStaleCountRecomputed(t *testing.T) {
	e, oracle := cachePair(t, shardtest.UnevenCharge(1))
	before := mustAggregate(t, e, 1)
	mustAggregate(t, e, 1) // served from the cache
	add := []rating.Rating{{Rater: 3, Object: 1, Value: 0.7, Time: 3}}
	if err := e.SubmitAll(add); err != nil {
		t.Fatal(err)
	}
	if err := oracle.SubmitAll(add); err != nil {
		t.Fatal(err)
	}
	requireFresh(t, e, oracle, 1, before)
}

func TestEngineCacheStaleGenerationRecomputed(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		e, oracle := cachePair(t, shardtest.UnevenCharge(1))
		before := mustAggregate(t, e, 1)
		if _, err := e.ProcessWindow(0, 30); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ProcessWindow(0, 30); err != nil {
			t.Fatal(err)
		}
		requireFresh(t, e, oracle, 1, before)
	})
	t.Run("apply", func(t *testing.T) {
		// A cluster member's path: trust changes with no shard lock
		// taken and no rating added.
		e, _ := cachePair(t, shardtest.UnevenCharge(1))
		before := mustAggregate(t, e, 1)
		mal := e.maliciousRaters()
		obs := map[rating.RaterID]trust.Observation{2: {N: 6, Suspicious: 6, SuspicionMass: 6}}
		if err := e.ApplyObservations(obs, 30); err != nil {
			t.Fatal(err)
		}
		oracle := uncached(t, e)
		requireFresh(t, e, oracle, 1, before)
		got, want := e.maliciousRaters(), oracle.maliciousRaters()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("malicious list %v, oracle %v", got, want)
		}
		if reflect.DeepEqual(want, mal) {
			t.Fatalf("the apply left the malicious list at %v: the test proves nothing", mal)
		}
	})
}

// A restore can keep an object's rating count while changing its
// values; the trust generation, not the count, must stale the entry.
func TestEngineCacheLoadSnapshotSameCount(t *testing.T) {
	e, _ := cachePair(t, shardtest.UnevenCharge(1))
	before := mustAggregate(t, e, 1)

	swapped := shardtest.UnevenCharge(1)
	swapped[0].Value, swapped[1].Value = 0.9, 0.1
	_, oracle := cachePair(t, swapped)
	var snap bytes.Buffer
	if err := oracle.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	requireFresh(t, e, oracle, 1, before)
}

// The cache holds at most aggregateCacheSize aggregates per engine,
// whatever the number of objects read.
func TestEngineCacheBound(t *testing.T) {
	const shards, objects = 4, aggregateCacheSize + 1000
	e, err := NewEngine(core.Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]rating.Rating, objects)
	for i := range rs {
		rs[i] = rating.Rating{Rater: rating.RaterID(i % 7), Object: rating.ObjectID(i), Value: 0.5, Time: 1}
	}
	if err := e.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	for obj := 0; obj < objects; obj++ {
		mustAggregate(t, e, rating.ObjectID(obj))
	}
	total := 0
	for i, st := range e.states {
		if len(st.aggs) > aggregateCacheSize/shards {
			t.Errorf("shard %d caches %d aggregates, over its share %d", i, len(st.aggs), aggregateCacheSize/shards)
		}
		total += len(st.aggs)
	}
	if total > aggregateCacheSize {
		t.Fatalf("engine caches %d aggregates, bound %d", total, aggregateCacheSize)
	}
	if total < aggregateCacheSize/2 {
		t.Fatalf("engine caches only %d aggregates after %d distinct reads", total, objects)
	}
}
