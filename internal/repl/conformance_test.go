package repl_test

// Two-node conformance: drive the seeded shardtest workload through a
// primary node while a live follower tails its WAL, and require the
// follower's fingerprint to be byte-identical to both the primary's
// and the single-threaded core.System oracle's at EVERY barrier — at
// 1, 2, 4 and 8 shards.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard/shardtest"
)

func TestTwoNodeConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			w := shardtest.Workload{Seed: 1700 + int64(shards)}
			p := newPrimaryNode(t, shards)
			fn := newFollowerNode(t, shards, p.url(), nil)

			// The oracle replays the exact same months, one step behind,
			// inside each checkpoint.
			oracle, err := core.NewSystem(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			months := w.Generate()

			trace, err := shardtest.RunWithCheckpoints(p, w, func(m int) error {
				if err := oracle.SubmitAll(months[m].Ratings); err != nil {
					return err
				}
				if _, err := oracle.ProcessWindow(months[m].Start, months[m].End); err != nil {
					return err
				}
				fn.waitAligned(uint64(m+1), 10*time.Second)

				want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, w.Objects)
				if err != nil {
					return err
				}
				gotPrimary, err := shardtest.Fingerprint(p, w.Objects)
				if err != nil {
					return err
				}
				gotFollower, err := shardtest.Fingerprint(fn.engine, w.Objects)
				if err != nil {
					return err
				}
				if gotPrimary != want {
					return fmt.Errorf("barrier %d: primary fingerprint diverged from oracle:\n--- oracle\n%s--- primary\n%s", m+1, want, gotPrimary)
				}
				if gotFollower != want {
					return fmt.Errorf("barrier %d: follower fingerprint diverged from oracle:\n--- oracle\n%s--- follower\n%s", m+1, want, gotFollower)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if trace == "" {
				t.Fatal("empty conformance trace")
			}

			// Status surfaces should agree on where we ended up.
			st := fn.f.Status()
			if st.BarrierSeq != uint64(len(months)) {
				t.Fatalf("follower barrier %d, want %d", st.BarrierSeq, len(months))
			}
			if st.LagRecords != 0 {
				t.Fatalf("follower lag %d records at quiescence", st.LagRecords)
			}
			if st.Epoch != 1 || st.Shards != shards {
				t.Fatalf("follower status epoch=%d shards=%d", st.Epoch, st.Shards)
			}
		})
	}
}

// TestFollowerBootstrapMidStream starts the follower only after the
// primary has already ingested and compacted — so bootstrap lands on a
// non-trivial snapshot and tailing starts from a mid-history cursor.
func TestFollowerBootstrapMidStream(t *testing.T) {
	w := shardtest.Workload{Seed: 99, Months: 4}
	p := newPrimaryNode(t, 4)
	months := w.Generate()

	// Two months ingested before the follower exists, plus a snapshot
	// cut so early segments can be compacted away.
	for m := 0; m < 2; m++ {
		if err := p.SubmitAll(months[m].Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ProcessWindow(months[m].Start, months[m].End); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fn := newFollowerNode(t, 4, p.url(), nil)
	fn.waitAligned(2, 10*time.Second)

	for m := 2; m < 4; m++ {
		if err := p.SubmitAll(months[m].Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ProcessWindow(months[m].Start, months[m].End); err != nil {
			t.Fatal(err)
		}
	}
	fn.waitAligned(4, 10*time.Second)

	want, err := shardtest.Fingerprint(p, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(fn.engine, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("late-joining follower diverged:\n--- primary\n%s--- follower\n%s", want, got)
	}
}
