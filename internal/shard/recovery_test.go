package shard_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

// openLogs opens one WAL per shard directory under dir.
func openLogs(t *testing.T, dir string, n int) ([]*wal.Log, []shard.RecoveredShard) {
	t.Helper()
	logs := make([]*wal.Log, n)
	recovered := make([]shard.RecoveredShard, n)
	for i := range logs {
		l, rec, err := wal.Open(wal.Options{
			Dir:    filepath.Join(dir, shardDirName(i)),
			Policy: wal.SyncNever,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
		recovered[i] = shard.RecoveredShard{Snapshot: rec.Snapshot, Records: rec.Records}
	}
	return logs, recovered
}

func shardDirName(i int) string { return "shard-" + string(rune('0'+i)) }

func closeLogs(t *testing.T, logs []*wal.Log) {
	t.Helper()
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// logMonth appends a month's ratings to their shard logs (routing by
// hash over n logs) and then broadcasts its barrier to every log.
func logMonth(t *testing.T, logs []*wal.Log, m shardtest.Month, seq uint64) {
	t.Helper()
	for _, r := range m.Ratings {
		l := logs[shard.ShardFor(r.Object, len(logs))]
		if err := l.Append(wal.RatingRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range logs {
		if err := l.Append(wal.BarrierRecord(seq, m.Start, m.End)); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleFingerprint replays the months through a fresh core.System.
func oracleFingerprint(t *testing.T, months []shardtest.Month, objects int) string {
	t.Helper()
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range months {
		if err := sys.SubmitAll(m.Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ProcessWindow(m.Start, m.End); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := shardtest.Fingerprint(shardtest.Oracle{System: sys}, objects)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func recoverEngine(t *testing.T, recovered []shard.RecoveredShard, shards int) (*shard.Engine, shard.RecoverStats) {
	t.Helper()
	e, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := shard.Recover(e, recovered, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats
}

// A clean multi-log history replays into exactly the oracle's state.
func TestRecoverRoundTrip(t *testing.T) {
	w := shardtest.Workload{Seed: 21, Months: 2, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	for m, month := range months {
		logMonth(t, logs, month, uint64(m+1))
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, stats := recoverEngine(t, recovered, 2)
	if stats.Windows != 2 || stats.Dropped != 0 || stats.Remapped || stats.NextSeq != 3 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleFingerprint(t, months, 5); got != want {
		t.Fatalf("recovered state diverges from oracle:\n%s", firstDiff(want, got))
	}
}

// Changing the shard count between runs remaps cleanly: logs written
// under 2 shards recover into a 3-shard engine bit-identically.
func TestRecoverWithChangedShardCount(t *testing.T) {
	w := shardtest.Workload{Seed: 22, Months: 2, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	for m, month := range months {
		logMonth(t, logs, month, uint64(m+1))
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, stats := recoverEngine(t, recovered, 3)
	if !stats.Remapped {
		t.Fatalf("shard count change not reported: %+v", stats)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleFingerprint(t, months, 5); got != want {
		t.Fatalf("remapped state diverges from oracle:\n%s", firstDiff(want, got))
	}
}

// A barrier that reached only some logs as the very last event is a
// torn broadcast: recovery drops it with a warning and the state is
// the oracle's state WITHOUT that window.
func TestRecoverDropsTornTrailingBarrier(t *testing.T) {
	w := shardtest.Workload{Seed: 23, Months: 2, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	logMonth(t, logs, months[0], 1)
	// Month 2's ratings land everywhere, but its barrier reaches only
	// log 0 before the crash.
	for _, r := range months[1].Ratings {
		l := logs[shard.ShardFor(r.Object, 2)]
		if err := l.Append(wal.RatingRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := logs[0].Append(wal.BarrierRecord(2, months[1].Start, months[1].End)); err != nil {
		t.Fatal(err)
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, stats := recoverEngine(t, recovered, 2)
	if stats.Windows != 1 || stats.Dropped != 1 {
		t.Fatalf("stats %+v", stats)
	}
	// The oracle: both months' ratings, but only month 1's window.
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll(months[0].Ratings); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessWindow(months[0].Start, months[0].End); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll(months[1].Ratings); err != nil {
		t.Fatal(err)
	}
	want, err := shardtest.Fingerprint(shardtest.Oracle{System: sys}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("torn-barrier recovery diverges:\n%s", firstDiff(want, got))
	}
}

// A crash partway through the one-log-at-a-time snapshot pass leaves
// shard snapshots at different barrier heights: the rebased log's
// tail is empty while a lagging log still carries ratings and
// barriers at or below the newest snapshot's height. All data is
// intact, so recovery must merge it cleanly — stale barriers consume
// per log without cross-log alignment — not refuse with a
// ConsistencyError.
func TestRecoverMisalignedSnapshotHeights(t *testing.T) {
	w := shardtest.Workload{Seed: 25, Months: 3, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	live, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(m shardtest.Month, seq uint64) {
		logMonth(t, logs, m, seq)
		if err := live.SubmitAll(m.Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := live.ProcessWindow(m.Start, m.End); err != nil {
			t.Fatal(err)
		}
	}
	snapshotShard := func(i int, barrier uint64) {
		if err := logs[i].Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(live, i, barrier, w)
		}); err != nil {
			t.Fatal(err)
		}
	}

	apply(months[0], 1)
	// A complete snapshot pass at barrier 1...
	snapshotShard(0, 1)
	snapshotShard(1, 1)
	apply(months[1], 2)
	// ...then a pass that crashes after rebasing only log 0: log 0's
	// tail is now empty at height 2 while log 1 still holds month 2's
	// ratings and its barrier.
	snapshotShard(0, 2)
	// Month 3 lands after the interrupted pass.
	apply(months[2], 3)
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, stats := recoverEngine(t, recovered, 2)
	if stats.Windows != 1 || stats.Dropped != 0 || stats.NextSeq != 4 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleFingerprint(t, months, 5); got != want {
		t.Fatalf("misaligned-snapshot recovery diverges:\n%s", firstDiff(want, got))
	}
}

// The extreme misalignment: only one log ever got a snapshot. The
// never-snapshotted log replays its entire tail, including barriers
// the snapshotted log already folded into its trust records.
func TestRecoverSnapshotSubsetOfLogs(t *testing.T) {
	w := shardtest.Workload{Seed: 26, Months: 2, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	live, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for m, month := range months {
		logMonth(t, logs, month, uint64(m+1))
		if err := live.SubmitAll(month.Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := live.ProcessWindow(month.Start, month.End); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot pass dies after log 0.
	if err := logs[0].Snapshot(func(w io.Writer) error {
		return shard.WriteShardSnapshot(live, 0, 2, w)
	}); err != nil {
		t.Fatal(err)
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	if recovered[0].Snapshot == nil || recovered[1].Snapshot != nil {
		t.Fatalf("want a snapshot on log 0 only")
	}
	e, stats := recoverEngine(t, recovered, 2)
	if stats.Windows != 0 || stats.Dropped != 0 || stats.NextSeq != 3 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleFingerprint(t, months, 5); got != want {
		t.Fatalf("subset-snapshot recovery diverges:\n%s", firstDiff(want, got))
	}
}

// A barrier missing from one log while another log CONTINUES past it
// cannot be crash damage — recovery must fail loudly, not serve trust
// computed from a diverged history.
func TestRecoverMidStreamMismatchFails(t *testing.T) {
	dir := t.TempDir()
	logs, _ := openLogs(t, dir, 2)
	r0 := rating.Rating{Rater: 1, Object: 0, Value: 0.5, Time: 1}
	r1 := rating.Rating{Rater: 2, Object: 0, Value: 0.6, Time: 40}
	l := logs[shard.ShardFor(rating.ObjectID(0), 2)]
	if err := l.Append(wal.RatingRecord(r0)); err != nil {
		t.Fatal(err)
	}
	// The barrier reaches only object 0's log, and that log keeps
	// going afterwards.
	if err := l.Append(wal.BarrierRecord(1, 0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.RatingRecord(r1)); err != nil {
		t.Fatal(err)
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shard.Recover(e, recovered, t.Logf)
	var cerr *shard.ConsistencyError
	if !errors.As(err, &cerr) {
		t.Fatalf("want ConsistencyError, got %v", err)
	}
}

// Barriers whose sequence numbers disagree across logs fail the same
// way.
func TestRecoverSeqMismatchFails(t *testing.T) {
	dir := t.TempDir()
	logs, _ := openLogs(t, dir, 2)
	if err := logs[0].Append(wal.BarrierRecord(1, 0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := logs[1].Append(wal.BarrierRecord(2, 0, 30)); err != nil {
		t.Fatal(err)
	}
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	e, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shard.Recover(e, recovered, t.Logf)
	var cerr *shard.ConsistencyError
	if !errors.As(err, &cerr) {
		t.Fatalf("want ConsistencyError, got %v", err)
	}
}

// Shard snapshots seed recovery: the log tail before the snapshot is
// compacted away, windows at or below the snapshot's barrier are
// skipped, and the post-snapshot tail replays on top.
func TestRecoverFromShardSnapshots(t *testing.T) {
	w := shardtest.Workload{Seed: 24, Months: 3, PerMonth: 200}
	months := w.Generate()
	dir := t.TempDir()

	logs, _ := openLogs(t, dir, 2)
	// Live run: months 1-2 logged and applied, then snapshotted at
	// barrier 2.
	live, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		logMonth(t, logs, months[m], uint64(m+1))
		if err := live.SubmitAll(months[m].Ratings); err != nil {
			t.Fatal(err)
		}
		if _, err := live.ProcessWindow(months[m].Start, months[m].End); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range logs {
		i := i
		if err := l.Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(live, i, 2, w)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Month 3 lands after the snapshot.
	logMonth(t, logs, months[2], 3)
	closeLogs(t, logs)

	_, recovered := openLogs(t, dir, 2)
	for i, rec := range recovered {
		if rec.Snapshot == nil {
			t.Fatalf("shard %d: no snapshot recovered", i)
		}
	}
	e, stats := recoverEngine(t, recovered, 2)
	if stats.SnapshotRatings == 0 || stats.Windows != 1 || stats.NextSeq != 4 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := shardtest.Fingerprint(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleFingerprint(t, months, 5); got != want {
		t.Fatalf("snapshot-seeded recovery diverges:\n%s", firstDiff(want, got))
	}
}

// TestShardSnapshotEnvelopeMatchesJSON pins the hand-written envelope
// to the bytes json.Encoder writes for it, with the state embedded as
// a json.RawMessage, before any window (windowEnd omitted) and after
// one.
func TestShardSnapshotEnvelopeMatchesJSON(t *testing.T) {
	type envelope struct {
		Version    int             `json:"version"`
		Shard      int             `json:"shard"`
		Shards     int             `json:"shards"`
		BarrierSeq uint64          `json:"barrierSeq"`
		WindowEnd  float64         `json:"windowEnd,omitempty"`
		State      json.RawMessage `json:"state"`
	}
	months := shardtest.Workload{Seed: 25, Months: 1, PerMonth: 300}.Generate()
	e, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitAll(months[0].Ratings); err != nil {
		t.Fatal(err)
	}
	check := func(name string, wantWindowEnd bool) {
		for i := 0; i < 2; i++ {
			var got bytes.Buffer
			if err := shard.WriteShardSnapshot(e, i, 7, &got); err != nil {
				t.Fatal(err)
			}
			var env envelope
			if err := json.Unmarshal(got.Bytes(), &env); err != nil {
				t.Fatalf("%s shard %d: %v", name, i, err)
			}
			if hasEnd := bytes.Contains(got.Bytes(), []byte(`"windowEnd"`)); hasEnd != wantWindowEnd {
				t.Fatalf("%s shard %d: windowEnd written %v, want %v", name, i, hasEnd, wantWindowEnd)
			}
			// The envelope used to carry the state as Encode writes it,
			// trailing newline included.
			env.State = append(env.State, '\n')
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(env); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s shard %d: envelope differs from json.Encoder:\n got %.300s\nwant %.300s", name, i, got.Bytes(), want.Bytes())
			}
		}
	}
	check("before a window", false)
	if _, err := e.ProcessWindow(months[0].Start, months[0].End); err != nil {
		t.Fatal(err)
	}
	check("after a window", true)
}
