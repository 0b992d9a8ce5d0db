package shard_test

import (
	"bytes"
	"testing"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// The conformance contract: replaying an identical seeded workload
// through 1, 2, 4 and 8 shard engines produces byte-identical traces
// — every per-window observation, trust record, detector verdict and
// aggregate — and all of them match the single-threaded core.System
// oracle.
func TestShardCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := shardtest.Workload{Seed: seed}

		oracle, err := core.NewSystem(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := shardtest.Run(shardtest.Oracle{System: oracle}, w)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		for _, shards := range []int{1, 2, 4, 8} {
			e, err := shard.NewEngine(core.Config{}, shards)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shardtest.Run(e, w)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if got != want {
				t.Fatalf("seed %d: %d-shard trace diverges from oracle:\n%s",
					seed, shards, firstDiff(want, got))
			}
		}
	}
}

// The same contract with the window-level detectors switched on: the
// collusion graph and the iterative filter run over the whole window's
// accepted ratings, gathered across shards, so they are the natural
// place for a shard-count dependence to sneak in. Traces must stay
// byte-identical to the core.System oracle at 1, 2, 4 and 8 shards.
func TestShardAuxDetectorInvariance(t *testing.T) {
	cfg := func() core.Config {
		return core.Config{
			Collusion: &collusion.Config{MinSimilarity: 0.6, MinCoRatings: 2, MinGroupSize: 2},
			Iterative: &detector.IterativeConfig{},
		}
	}
	for _, seed := range []int64{5, 21} {
		w := shardtest.Workload{Seed: seed}

		oracle, err := core.NewSystem(cfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := shardtest.Run(shardtest.Oracle{System: oracle}, w)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		for _, shards := range []int{1, 2, 4, 8} {
			e, err := shard.NewEngine(cfg(), shards)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shardtest.Run(e, w)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if got != want {
				t.Fatalf("seed %d: %d-shard trace with aux detectors diverges:\n%s",
					seed, shards, firstDiff(want, got))
			}
		}
	}
}

// Workers must not change results either: the sharded scan fans out
// per object exactly like core.System's.
func TestShardWorkerInvariance(t *testing.T) {
	w := shardtest.Workload{Seed: 3}
	base, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shardtest.Run(base, w)
	if err != nil {
		t.Fatal(err)
	}
	par, err := shard.NewEngine(core.Config{Workers: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Run(par, w)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("worker count changed the trace:\n%s", firstDiff(want, got))
	}
}

// Global snapshots round-trip across shard counts: a 4-shard engine's
// snapshot restores into a 2-shard engine with an identical
// fingerprint.
func TestSnapshotAcrossShardCounts(t *testing.T) {
	w := shardtest.Workload{Seed: 11, Months: 2, PerMonth: 200}
	src, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shardtest.Run(src, w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := shardtest.Fingerprint(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(dst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("snapshot fingerprint diverges:\n%s", firstDiff(want, got))
	}
}

// firstDiff renders the first line where two traces diverge, with a
// little context — full traces are thousands of lines.
func firstDiff(want, got string) string {
	w := bytes.Split([]byte(want), []byte("\n"))
	g := bytes.Split([]byte(got), []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return "line " + itoa(i) + ":\nwant: " + string(w[i]) + "\ngot:  " + string(g[i])
		}
	}
	return "traces differ in length: want " + itoa(len(w)) + " lines, got " + itoa(len(g))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
