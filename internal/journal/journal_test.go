package journal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

const testObjects = 5

// testConfig is a journal over dir whose every submit flushes at once
// and whose logs skip fsync.
func testConfig(dir string) Config {
	return Config{Dir: dir, WAL: wal.Options{Policy: wal.SyncNever}, BatchSize: 1}
}

func newEngine(t *testing.T, shards int) *shard.Engine {
	t.Helper()
	e, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func openJournal(t *testing.T, e *shard.Engine, cfg Config) *Journal {
	t.Helper()
	j, _, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// testRating is the i-th rating of a deterministic trace over
// testObjects objects, one rating-day apart.
func testRating(i int) rating.Rating {
	return rating.Rating{
		Rater:  rating.RaterID(i%6 + 1),
		Object: rating.ObjectID(i % testObjects),
		Value:  0.2 + 0.06*float64(i*7%10),
		Time:   float64(i),
	}
}

// submitTrace writes ratings [from, to) through j with a window every
// 15 rating-days.
func submitTrace(t *testing.T, j *Journal, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := j.SubmitAll([]rating.Rating{testRating(i)}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%15 == 0 {
			if _, err := j.ProcessWindow(float64(i-14), float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func fingerprint(t *testing.T, sys shardtest.System) string {
	t.Helper()
	fp, err := shardtest.Fingerprint(sys, testObjects)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// A failing log append must refuse the batch without applying it.
func TestShardJournalFailureRefusesWrite(t *testing.T) {
	e := newEngine(t, 1)
	j := openJournal(t, e, testConfig(t.TempDir()))
	defer j.Abort()
	// Close the log out from under the journal: every append now fails.
	if err := j.logs[0].Close(); err != nil {
		t.Fatal(err)
	}
	err := j.SubmitAll([]rating.Rating{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	if err == nil {
		t.Fatal("append on closed log accepted")
	}
	if got := e.Len(); got != 0 {
		t.Fatalf("unjournaled rating applied: %d", got)
	}
}

// A barrier broadcast that fails after reaching some logs wedges the
// journal: accepting more writes would turn a recoverable torn
// barrier into an unrecoverable mid-stream inconsistency.
func TestShardJournalWedgesOnPartialBarrier(t *testing.T) {
	j := openJournal(t, newEngine(t, 2), testConfig(t.TempDir()))
	defer j.Abort()

	if err := j.SubmitAll([]rating.Rating{{Rater: 1, Object: 0, Value: 0.5, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	// Kill shard 1's log out from under the journal: the barrier lands
	// in log 0, then fails — a partial broadcast.
	if err := j.logs[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.ProcessWindow(0, 30); err == nil {
		t.Fatal("partial barrier broadcast did not error")
	}
	if err := j.flush(0, []rating.Rating{{Rater: 2, Object: 0, Value: 0.6, Time: 2}}); !errors.Is(err, errJournalWedged) {
		t.Fatalf("flush after partial barrier = %v, want errJournalWedged", err)
	}
	if _, err := j.ProcessWindow(0, 30); !errors.Is(err, errJournalWedged) {
		t.Fatalf("window after partial barrier = %v, want errJournalWedged", err)
	}
}

// failKthSync makes the k-th fsync on fs (from 0) fail.
func failKthSync(fs *faultinject.MemFS, k int) {
	syncs := 0
	fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
		if op.Kind != "sync" {
			return nil
		}
		syncs++
		if syncs-1 == k {
			return &faultinject.Fault{Err: faultinject.ErrInjected}
		}
		return nil
	})
}

// TestFsyncFaultSweep fails the k-th fsync of a two-shard journal
// under -fsync always, keeps writing single ratings with a window
// every 15, then crashes and reopens. Whichever write the failure
// refuses — a rating, a barrier on log 0, or a barrier on log 1 that
// wedges the journal — the recovered state must be exactly the state
// the acknowledged writes alone build in the core.System oracle.
func TestFsyncFaultSweep(t *testing.T) {
	const ratings = 90 // 90 rating and 12 barrier fsyncs
	for k := 0; k < 80; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fs := faultinject.NewMemFS()
			cfg := Config{Dir: t.TempDir(), WAL: wal.Options{FS: fs, Policy: wal.SyncAlways}, BatchSize: 1}
			j := openJournal(t, newEngine(t, 2), cfg)
			failKthSync(fs, k)
			oracle, err := core.NewSystem(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			refused := 0
			for i := 0; i < ratings; i++ {
				r := testRating(i)
				if err := j.SubmitAll([]rating.Rating{r}); err != nil {
					refused++
				} else if err := oracle.Submit(r); err != nil {
					t.Fatal(err)
				}
				if (i+1)%15 != 0 {
					continue
				}
				start, end := float64(i-14), float64(i+1)
				if _, err := j.ProcessWindow(start, end); err != nil {
					refused++
				} else if _, err := oracle.ProcessWindow(start, end); err != nil {
					t.Fatal(err)
				}
			}
			if refused == 0 {
				t.Fatalf("fsync %d failed no write", k)
			}
			fs.Crash()
			j.Abort()

			e := newEngine(t, 2)
			j2, _, err := Open(e, cfg)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer j2.Abort()
			if got, want := fingerprint(t, e), fingerprint(t, shardtest.Oracle{System: oracle}); got != want {
				t.Fatalf("recovered state is not the acknowledged writes' (%d refused):\n--- oracle\n%s--- recovered\n%s",
					refused, want, got)
			}
		})
	}
}

// TestIntervalFsyncFaultKeepsAcknowledged is the sweep under -fsync
// interval, with the background sync every 5 ratings: every write is
// acknowledged before its fsync, so a failed sync must keep it for the
// next one. After a final good sync and a crash, every write recovers,
// windows included; undoing one log's tail would drop a window from
// that log alone and break the cross-log barrier order.
func TestIntervalFsyncFaultKeepsAcknowledged(t *testing.T) {
	const ratings = 90 // 36 background fsyncs over both logs
	for k := 0; k < 36; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fs := faultinject.NewMemFS()
			cfg := Config{Dir: t.TempDir(), WAL: wal.Options{FS: fs, Policy: wal.SyncInterval}, BatchSize: 1}
			e := newEngine(t, 2)
			j := openJournal(t, e, cfg)
			failKthSync(fs, k)
			failed := 0
			for i := 0; i < ratings; i += 5 {
				submitTrace(t, j, i, i+5)
				if j.Sync() != nil {
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("fsync %d never failed", k)
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, e)
			fs.Crash()
			j.Abort()

			e2 := newEngine(t, 2)
			j2, _, err := Open(e2, cfg)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer j2.Abort()
			if got := fingerprint(t, e2); got != want {
				t.Fatalf("acknowledged writes lost:\n--- acknowledged\n%s--- recovered\n%s", want, got)
			}
		})
	}
}

// An epoch directory with no MANIFEST is what a crash before a fresh
// directory's first manifest commit leaves. Open adopts it, so its
// logs replay instead of being shadowed by an empty fresh epoch.
func TestOpenAdoptsEpochWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, 2)
	j := openJournal(t, e, testConfig(dir))
	submitTrace(t, j, 0, 40)
	want := fingerprint(t, e)
	j.Abort()
	if err := os.Remove(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, 2)
	j2 := openJournal(t, e2, testConfig(dir))
	defer j2.Abort()
	if got := fingerprint(t, e2); got != want {
		t.Fatalf("adopted epoch did not replay:\nwant %q\ngot  %q", want, got)
	}
	if m, ok, err := ReadManifest(dir); err != nil || !ok || m.Epoch != 1 || m.Shards != 2 {
		t.Fatalf("adoption manifest %+v ok=%v err=%v, want epoch 1 with 2 shards", m, ok, err)
	}
}

// A crash between a migration's manifest flip and its removal of the
// old epoch leaves both epochs on disk. The next Open removes the one
// the manifest superseded and recovers the live one.
func TestOpenRemovesSupersededEpochs(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	e := newEngine(t, 2)
	j := openJournal(t, e, cfg)
	submitTrace(t, j, 0, 40)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, e)
	logs, err := migrateToEpoch(e, cfg, 2, j.NextBarrierSeq())
	if err != nil {
		t.Fatal(err)
	}
	closeLogSet(logs)
	if epochs, err := Epochs(dir); err != nil || fmt.Sprint(epochs) != "[1 2]" {
		t.Fatalf("setup left epochs %v (err=%v), want [1 2]", epochs, err)
	}

	e2 := newEngine(t, 2)
	j2 := openJournal(t, e2, cfg)
	defer j2.Abort()
	if epochs, err := Epochs(dir); err != nil || fmt.Sprint(epochs) != "[2]" {
		t.Fatalf("epochs after open %v (err=%v), want [2]", epochs, err)
	}
	if got := fingerprint(t, e2); j2.Epoch() != 2 || got != want {
		t.Fatalf("epoch %d recovered:\nwant %q\ngot  %q", j2.Epoch(), want, got)
	}
}

// A follower promoted over a directory whose stale manifest already
// names the follower's next epoch commits the epoch after it: reusing
// the named epoch would delete the live one before the manifest flip.
func TestPromoteBumpsPastStaleManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	// An earlier promotion here committed epoch 2.
	stale := newEngine(t, 1)
	if err := stale.SubmitAll([]rating.Rating{testRating(0), testRating(1)}); err != nil {
		t.Fatal(err)
	}
	j, err := Promote(stale, cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Abort()

	// Now a follower of a primary at epoch 1 promotes here; a journal
	// with no Dir stands in for the replication that built its engine.
	e := newEngine(t, 1)
	j = openJournal(t, e, testConfig(""))
	submitTrace(t, j, 0, 40)
	j.Abort()
	j, err = Promote(e, cfg, 2, j.NextBarrierSeq())
	if err != nil {
		t.Fatal(err)
	}
	j.Abort()
	if j.Epoch() != 3 {
		t.Fatalf("promoted to epoch %d, want 3", j.Epoch())
	}
	if m, ok, err := ReadManifest(dir); err != nil || !ok || m.Epoch != 3 {
		t.Fatalf("manifest %+v ok=%v err=%v, want epoch 3", m, ok, err)
	}

	e2 := newEngine(t, 1)
	j2 := openJournal(t, e2, cfg)
	defer j2.Abort()
	if got, want := fingerprint(t, e2), fingerprint(t, e); got != want {
		t.Fatalf("promoted state did not recover:\nwant %q\ngot  %q", want, got)
	}
}

// rebaseLogs snapshots its logs concurrently but reports like the
// serial pass it replaced: the lowest-indexed failing shard's error,
// however late that shard is, with every other log still rebased.
func TestRebaseLogsReportsLowestFailingShard(t *testing.T) {
	e := newEngine(t, 3)
	if err := e.SubmitAll([]rating.Rating{testRating(0), testRating(1), testRating(2)}); err != nil {
		t.Fatal(err)
	}
	for _, closed := range [][]int{{2}, {1, 2}} {
		root := t.TempDir()
		logs, _, err := openLogSet(testConfig(root), 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range closed {
			logs[i].Close()
		}
		err = rebaseLogs(logs, e, 0)
		if !errors.Is(err, wal.ErrClosed) || !strings.HasPrefix(err.Error(), fmt.Sprintf("shard %d:", closed[0])) {
			t.Fatalf("logs %v closed: rebase error %v, want shard %d's ErrClosed", closed, err, closed[0])
		}
		if snap, _, _, err := logs[0].LatestSnapshot(); err != nil || len(snap) == 0 {
			t.Fatalf("logs %v closed: log 0 not rebased (%d bytes, %v)", closed, len(snap), err)
		}
		closeLogSet(logs)
	}
}
