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

// The engine computes every read from current state. Each test below
// reads, changes the state through exactly one path, and reads again:
// the second answer must equal an oracle's and differ from the first,
// so a stale answer cannot pass.

// enginePair builds a two-shard engine and a core.System oracle, both
// fed rs.
func enginePair(t *testing.T, rs []rating.Rating) (*Engine, *core.System) {
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

// requireFresh reads obj from e twice and from the oracle: all three
// must agree bit for bit and differ from before.
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

// reseeded is a fresh one-shard engine seeded from e's state.
func reseeded(t *testing.T, e *Engine) *Engine {
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
	e, oracle := enginePair(t, shardtest.UnevenCharge(1))
	before := mustAggregate(t, e, 1)
	mustAggregate(t, e, 1) // a repeated read
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
		e, oracle := enginePair(t, shardtest.UnevenCharge(1))
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
		e, _ := enginePair(t, shardtest.UnevenCharge(1))
		before := mustAggregate(t, e, 1)
		mal := e.maliciousRaters()
		obs := map[rating.RaterID]trust.Observation{2: {N: 6, Suspicious: 6, SuspicionMass: 6}}
		if err := e.ApplyObservations(obs, 30); err != nil {
			t.Fatal(err)
		}
		oracle := reseeded(t, e)
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
// values; the read must see the new values.
func TestEngineCacheLoadSnapshotSameCount(t *testing.T) {
	e, _ := enginePair(t, shardtest.UnevenCharge(1))
	before := mustAggregate(t, e, 1)

	swapped := shardtest.UnevenCharge(1)
	swapped[0].Value, swapped[1].Value = 0.9, 0.1
	_, oracle := enginePair(t, swapped)
	var snap bytes.Buffer
	if err := oracle.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	requireFresh(t, e, oracle, 1, before)
}
