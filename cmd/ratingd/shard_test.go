package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

// Ratings and windows accepted through the sharded journal survive an
// abrupt stop with no final snapshot: per-shard tails plus barrier
// records reconstruct the exact state.
func TestShardDaemonRoundTrip(t *testing.T) {
	w := shardtest.Workload{Seed: 31, Months: 2, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	d := walPrimary(t, dir, 2)
	for _, m := range months {
		if err := d.journal.SubmitAll(m.Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := d.journal.ProcessWindow(m.Start, m.End); err != nil {
			t.Fatal(err)
		}
	}
	want := engineFingerprint(t, d.engine, 5)
	d.abort()

	d2 := walPrimary(t, dir, 2)
	defer closeDaemon(t, d2)
	if got := engineFingerprint(t, d2.engine, 5); got != want {
		t.Fatalf("recovered state diverges:\nwant %q\ngot  %q", want, got)
	}
}

// Restarting with a different -shards value migrates the directory to
// a new epoch: same state, new layout, old epoch retired. Going down to
// one shard is a migration like any other.
func TestShardDaemonShardCountMigration(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{2, 3}, {4, 1}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			w := shardtest.Workload{Seed: 32, Months: 2, PerMonth: 200}
			months := w.Generate()
			dir := t.TempDir()

			d := walPrimary(t, dir, tc.from)
			for _, m := range months {
				if err := d.journal.SubmitAll(m.Ratings); err != nil {
					t.Fatal(err)
				}
				if _, err := d.journal.ProcessWindow(m.Start, m.End); err != nil {
					t.Fatal(err)
				}
			}
			want := engineFingerprint(t, d.engine, 5)
			closeDaemon(t, d)

			d2 := walPrimary(t, dir, tc.to)
			if got := engineFingerprint(t, d2.engine, 5); got != want {
				t.Fatalf("migrated state diverges:\nwant %q\ngot  %q", want, got)
			}
			m, ok, err := journal.ReadManifest(dir)
			if err != nil || !ok {
				t.Fatalf("manifest after migration: ok=%v err=%v", ok, err)
			}
			if m.Epoch != 2 || m.Shards != tc.to {
				t.Fatalf("manifest = %+v, want epoch 2 shards %d", m, tc.to)
			}
			if epochs, err := journal.Epochs(dir); err != nil || len(epochs) != 1 || epochs[0] != 2 {
				t.Fatalf("epochs on disk %v (err=%v), want only the migrated epoch 2", epochs, err)
			}
			closeDaemon(t, d2)

			// The migrated layout must itself recover cleanly.
			d3 := walPrimary(t, dir, tc.to)
			defer closeDaemon(t, d3)
			if got := engineFingerprint(t, d3.engine, 5); got != want {
				t.Fatalf("post-migration restart diverges:\nwant %q\ngot  %q", want, got)
			}
		})
	}
}

// A pre-sharding WAL directory (a single log in the root, no manifest)
// is refused with an error naming the layout, and left untouched:
// opening a fresh epoch beside it would silently serve empty state.
// The interrupted case is what an older ratingd left when it died
// mid-migration: the root log beside a half-written epoch-0001 with no
// manifest. Adopting that epoch would drop the records only the root
// log holds, so it is refused the same way.
func TestShardDaemonRefusesLegacyWAL(t *testing.T) {
	for _, tc := range []struct {
		name        string
		shards      int
		interrupted bool
	}{
		{"root_log", 1, false},
		{"interrupted_migration", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, _, err := wal.Open(testWALOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			var ratings []rating.Rating
			for i := 0; i < 40; i++ {
				r := rating.Rating{Rater: rating.RaterID(i%8 + 1), Object: rating.ObjectID(i % 5), Value: 0.8, Time: float64(i) / 2}
				ratings = append(ratings, r)
				if err := log.Append(wal.RatingRecord(r)); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Append(wal.BarrierRecord(1, 0, 30)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			wantEpochs := 0
			if tc.interrupted {
				// Shard 0's snapshot reached epoch-0001; shard 1's and
				// the manifest commit did not.
				partial, err := shard.NewEngine(core.Config{}, tc.shards)
				if err != nil {
					t.Fatal(err)
				}
				if err := partial.SubmitAll(ratings); err != nil {
					t.Fatal(err)
				}
				if _, err := partial.ProcessWindow(0, 30); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.shards; i++ {
					el, _, err := wal.Open(testWALOpts(journal.ShardDir(dir, 1, i)))
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						if err := el.Snapshot(func(w io.Writer) error {
							return shard.WriteShardSnapshot(partial, 0, 0, w)
						}); err != nil {
							t.Fatal(err)
						}
					}
					if err := el.Close(); err != nil {
						t.Fatal(err)
					}
				}
				wantEpochs = 1
			}

			o, err := parseFlags(walArgs(dir, tc.shards))
			if err != nil {
				t.Fatal(err)
			}
			if d, err := newPrimary(o); err == nil {
				d.abort()
				t.Fatal("pre-sharding wal dir accepted")
			} else if !strings.Contains(err.Error(), "pre-sharding") {
				t.Fatalf("refusal %q does not name the layout", err)
			}
			if _, ok, err := journal.ReadManifest(dir); ok || err != nil {
				t.Fatalf("refused dir gained a manifest (ok=%v err=%v)", ok, err)
			}
			if epochs, err := journal.Epochs(dir); len(epochs) != wantEpochs || err != nil {
				t.Fatalf("refused dir has epochs %v, want %d (err=%v)", epochs, wantEpochs, err)
			}
		})
	}
}

// The full HTTP surface works in front of the sharded engine: submit,
// process, and reads all route through the journal and router.
func TestShardDaemonServesHTTP(t *testing.T) {
	d := walPrimary(t, t.TempDir(), 4)
	defer closeDaemon(t, d)
	ts := httptest.NewServer(d.handler)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	var batch []api.RatingPayload
	for i := 0; i < 40; i++ {
		batch = append(batch, api.RatingPayload{
			Rater: i%8 + 1, Object: i % 5, Value: 0.8, Time: float64(i) / 2,
		})
	}
	if _, err := client.Submit(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Process(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	if got := d.engine.Len(); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}
	agg, err := client.Aggregate(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Value <= 0 {
		t.Fatalf("aggregate for object 3 = %+v", agg)
	}
}

// A promoted single-shard follower leaves a sharded WAL directory with
// shards=1; restarting against it at the default -shards 1 must open
// the sharded layout and recover.
func TestShardedDirAtOneShardReopens(t *testing.T) {
	dir := t.TempDir()
	engine, err := shard.NewEngine(core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		r := rating.Rating{Rater: rating.RaterID(i%4 + 1), Object: rating.ObjectID(i % 3), Value: 0.6, Time: float64(i)}
		if err := engine.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Promotion writes a fresh fully-snapshotted 1-shard epoch
	// committed by the manifest flip.
	j, err := journal.Promote(engine, journal.Config{Dir: dir, WAL: wal.Options{Policy: wal.SyncNever}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Abort()

	d := walPrimary(t, dir, 1)
	defer closeDaemon(t, d)
	if d.journal.Epoch() != 2 || d.engine.Len() != 12 {
		t.Fatalf("epoch=%d len=%d, want 2/12", d.journal.Epoch(), d.engine.Len())
	}
}
