package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
)

// trustIn reads one rater's trust from an engine.
func trustIn(t *testing.T, e *shard.Engine, id rating.RaterID) float64 {
	t.Helper()
	v, err := e.TrustIn(id)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Ratings accepted through the HTTP surface survive an abrupt stop
// (no final snapshot): the journal holds them and replay restores
// them, including the trust effects of a processed window.
func TestDaemonRecoversAcceptedRatingsAfterAbruptStop(t *testing.T) {
	dir := t.TempDir()
	d := walPrimary(t, dir, 1)
	ts := httptest.NewServer(d.handler)
	client := server.NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	var batch []api.RatingPayload
	for i := 0; i < 25; i++ {
		batch = append(batch, api.RatingPayload{
			Rater: i%5 + 1, Object: 7, Value: 0.8, Time: float64(i),
		})
	}
	if _, err := client.Submit(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Process(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	wantTrust := trustIn(t, d.engine, 1)
	ts.Close()
	d.abort()

	d2 := walPrimary(t, dir, 1)
	defer closeDaemon(t, d2)
	if got := d2.walM.RecoveredRecords.Value(); got != 26 { // 25 ratings + 1 barrier
		t.Fatalf("recovered %d records, want 26", got)
	}
	if got := d2.engine.Len(); got != 25 {
		t.Fatalf("recovered %d ratings, want 25", got)
	}
	if got := trustIn(t, d2.engine, 1); got != wantTrust {
		t.Fatalf("recovered trust %g, want %g", got, wantTrust)
	}
}

// A journal snapshot compacts every shard log: recovery after it
// replays only the post-snapshot tail, and state still matches.
func TestDaemonSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	d := walPrimary(t, dir, 2)
	for i := 0; i < 10; i++ {
		if err := d.journal.SubmitAll([]rating.Rating{{
			Rater: rating.RaterID(i), Object: rating.ObjectID(i % 4), Value: 0.4, Time: float64(i),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.journal.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot traffic lands in the tail.
	if err := d.journal.SubmitAll([]rating.Rating{{Rater: 99, Object: 3, Value: 0.6, Time: 42}}); err != nil {
		t.Fatal(err)
	}
	want := engineFingerprint(t, d.engine, 4)
	d.abort()

	d2 := walPrimary(t, dir, 2)
	defer closeDaemon(t, d2)
	if got := d2.walM.RecoveredRecords.Value(); got != 1 {
		t.Fatalf("tails hold %d records, want 1", got)
	}
	if got := engineFingerprint(t, d2.engine, 4); got != want {
		t.Fatalf("recovered state diverges:\nwant %q\ngot  %q", want, got)
	}
}

// Restore through the journal rebases every shard log: a crash right
// after a restore must come back with the restored state, not replay
// stale pre-restore records on top of it.
func TestShardDaemonRestoreRebasesLog(t *testing.T) {
	dir := t.TempDir()
	d := walPrimary(t, dir, 2)
	for obj := 0; obj < 4; obj++ { // objects on both shards
		if err := d.journal.SubmitAll([]rating.Rating{{Rater: 1, Object: rating.ObjectID(obj), Value: 0.2, Time: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	// Build a replacement state with different contents.
	donor, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := donor.Submit(rating.Rating{Rater: rating.RaterID(50 + i), Object: 9, Value: 0.9, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := donor.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := d.journal.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := d.engine.Len(); got != 5 {
		t.Fatalf("restored live state has %d ratings, want 5", got)
	}
	d.abort()

	d2 := walPrimary(t, dir, 2)
	defer closeDaemon(t, d2)
	if got := d2.walM.RecoveredRecords.Value(); got != 0 {
		t.Fatalf("stale records survived restore: %d", got)
	}
	if got := d2.engine.Len(); got != 5 {
		t.Fatalf("recovered %d ratings after restore, want 5", got)
	}
	if tr := trustIn(t, d2.engine, 1); tr != trustIn(t, d2.engine, 12345) {
		t.Fatalf("pre-restore rater left trust residue: %g", tr)
	}
}
