package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// countSyncs installs an injector that counts file fsyncs without
// faulting, and returns the counter.
func countSyncs(fs *faultinject.MemFS) *int {
	n := new(int)
	fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
		if op.Kind == "sync" {
			*n++
		}
		return nil
	})
	return n
}

func TestBufferedAppendVolatileUntilCommit(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAllBuffered([]Record{mkRating(0), mkRating(1)}); err != nil {
		t.Fatal(err)
	}
	// No Commit: a crash may lose the batch — and with MemFS it must,
	// since nothing fsynced.
	fs.Crash()
	l2, rec, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("uncommitted buffered batch survived crash: %d records", len(rec.Records))
	}

	tok, err := l2.AppendAllBuffered([]Record{mkRating(2), mkRating(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Commit(tok); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	_, rec, err = Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("committed batch lost: recovered %d records, want 2", len(rec.Records))
	}
}

func TestCommitLeaderCoversEarlierWrites(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := l.AppendAllBuffered([]Record{mkRating(0)})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := l.AppendAllBuffered([]Record{mkRating(1)})
	if err != nil {
		t.Fatal(err)
	}
	syncs := countSyncs(fs)
	if err := l.Commit(t2); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Fatalf("leader commit ran %d fsyncs, want 1", *syncs)
	}
	// The leader's fsync covered t1's earlier write; its commit must
	// not touch the file again.
	if err := l.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Fatalf("follower commit ran %d extra fsyncs, want 0", *syncs-1)
	}
}

func TestCommitNoopOutsideSyncAlways(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		fs := faultinject.NewMemFS()
		opts := testOptions(fs)
		opts.Policy = policy
		l, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := l.AppendAllBuffered([]Record{mkRating(0)})
		if err != nil {
			t.Fatal(err)
		}
		syncs := countSyncs(fs)
		if err := l.Commit(tok); err != nil {
			t.Fatal(err)
		}
		if *syncs != 0 {
			t.Fatalf("policy %v: commit ran %d fsyncs, want 0", policy, *syncs)
		}
	}
}

func TestConcurrentCommitsAllDurable(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tok, err := l.AppendAllBuffered([]Record{mkRating(w*100 + i)})
				if err == nil {
					err = l.Commit(tok)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	fs.Crash()
	_, rec, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != writers*20 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*20)
	}
}

func TestCommitReportsRotationSyncLoss(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := testOptions(fs)
	opts.SegmentBytes = 1 // every append lands in a fresh segment
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := l.AppendAllBuffered([]Record{mkRating(0)})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the rotation's best-effort sync of the outgoing dirty
	// segment: t1's record may now be lost, and its commit must say so
	// instead of acknowledging durability.
	fired := false
	fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
		if op.Kind == "sync" && !fired {
			fired = true
			return &faultinject.Fault{Err: errors.New("sync blown")}
		}
		return nil
	})
	t2, err := l.AppendAllBuffered([]Record{mkRating(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(t1); err == nil {
		t.Fatal("commit of batch lost in failed rotation sync returned nil")
	}
	// The later batch was written after the failed rotation; its
	// commit fsyncs the new segment and succeeds.
	if err := l.Commit(t2); err != nil {
		t.Fatalf("commit of post-rotation batch: %v", err)
	}
}

// TestFailedSyncRefusesExactlyUnsynced pins the undo a failed fsync
// runs under SyncAlways: the batches written since the last good sync
// are refused and never reach the disk, batches synced before keep
// committing nil, and a log whose undo fails is stuck, Close included.
// Under SyncInterval nothing is refused: a failed sync keeps the
// acknowledged bytes for the next one, and rotation waits for it. Each
// case crashes and checks what recovery brings back against what was
// acknowledged.
func TestFailedSyncRefusesExactlyUnsynced(t *testing.T) {
	// failNext fails the next operation of each kind in turn.
	failNext := func(fs *faultinject.MemFS, kinds ...string) {
		fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
			if len(kinds) > 0 && op.Kind == kinds[0] {
				kinds = kinds[1:]
				return &faultinject.Fault{Err: faultinject.ErrInjected}
			}
			return nil
		})
	}
	buffered := func(t *testing.T, l *Log, ids ...int) SyncToken {
		t.Helper()
		recs := make([]Record, len(ids))
		for i, id := range ids {
			recs[i] = mkRating(id)
		}
		tok, err := l.AppendAllBuffered(recs)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	commit := func(t *testing.T, l *Log, tok SyncToken, want error) {
		t.Helper()
		if err := l.Commit(tok); !errors.Is(err, want) {
			t.Fatalf("commit = %v, want %v", err, want)
		}
	}
	for _, tc := range []struct {
		name     string
		policy   SyncPolicy
		segBytes int64
		run      func(t *testing.T, l *Log, fs *faultinject.MemFS)
		want     string // recovered record times after the crash
	}{
		{"refused_commit", SyncAlways, 1 << 20, func(t *testing.T, l *Log, fs *faultinject.MemFS) {
			tok := buffered(t, l, 0, 1)
			failNext(fs, "sync")
			commit(t, l, tok, faultinject.ErrInjected)
			// The next good commit must not make the refused batch
			// durable along with its own.
			if err := l.Append(mkRating(2)); err != nil {
				t.Fatal(err)
			}
		}, "[2]"},
		{"rotation", SyncAlways, 100, func(t *testing.T, l *Log, fs *faultinject.MemFS) {
			t1 := buffered(t, l, 0)
			t2 := buffered(t, l, 1)
			commit(t, l, t2, nil) // syncs 0 and 1
			t3 := buffered(t, l, 2)
			failNext(fs, "sync")
			t4 := buffered(t, l, 3) // rotates; the sync of 2 fails
			fs.SetInjector(nil)
			commit(t, l, t1, nil) // synced before the failure
			commit(t, l, t3, errUndone)
			commit(t, l, t4, nil)
			commit(t, l, t2, nil)
		}, "[0 1 3]"},
		{"stuck", SyncAlways, 1 << 20, func(t *testing.T, l *Log, fs *faultinject.MemFS) {
			tok := buffered(t, l, 0)
			failNext(fs, "sync", "truncate") // the commit's sync, then the undo
			commit(t, l, tok, faultinject.ErrInjected)
			fs.SetInjector(nil)
			if _, err := l.AppendAllBuffered([]Record{mkRating(1)}); err == nil {
				t.Fatal("stuck log accepted an append")
			}
			if err := l.Sync(); err == nil {
				t.Fatal("stuck log synced")
			}
			commit(t, l, tok, errUndone)
			// A graceful close must not sync the refused tail either.
			if err := l.Close(); err == nil {
				t.Fatal("stuck log closed cleanly")
			}
		}, "[]"},
		{"interval", SyncInterval, 100, func(t *testing.T, l *Log, fs *faultinject.MemFS) {
			buffered(t, l, 0, 1, 2) // acknowledged; fills the segment
			failNext(fs, "sync")
			if err := l.Sync(); err == nil {
				t.Fatal("failed sync returned nil")
			}
			failNext(fs, "sync")
			if _, err := l.AppendAllBuffered([]Record{mkRating(3)}); err == nil {
				t.Fatal("rotated past an unsynced acknowledged tail")
			}
			fs.SetInjector(nil)
			buffered(t, l, 4) // rotates after syncing 0..2
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}, "[0 1 2 4]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultinject.NewMemFS()
			opts := testOptions(fs)
			opts.Policy = tc.policy
			opts.SegmentBytes = tc.segBytes
			l, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, l, fs)
			fs.Crash()
			_, rec, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(recordTimes(rec.Records)); got != tc.want {
				t.Fatalf("recovered %s, want %s", got, tc.want)
			}
		})
	}
}

// TestUndoInvalidatesReadersPastIt pins what a replication reader sees
// of a refused batch it already read: the undone offsets are never
// reused, so its cursor fails with ErrSegmentGone (a re-bootstrap)
// instead of resuming inside later frames, and the refused records
// leave AppendedRecords, the followers' lag baseline. A cursor short of
// the undo reads on into the next segment.
func TestUndoInvalidatesReadersPastIt(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkRating(0)); err != nil {
		t.Fatal(err)
	}
	kept := l.Tail()
	tok, err := l.AppendAllBuffered([]Record{mkRating(1), mkRating(2)})
	if err != nil {
		t.Fatal(err)
	}
	recs, past, err := l.ReadFrom(kept, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("read of the unsynced batch: %d records, %v", len(recs), err)
	}
	fired := false
	fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
		if op.Kind == "sync" && !fired {
			fired = true
			return &faultinject.Fault{Err: faultinject.ErrInjected}
		}
		return nil
	})
	if err := l.Commit(tok); err == nil {
		t.Fatal("commit with a failed sync returned nil")
	}
	if got := l.AppendedRecords(); got != 1 {
		t.Fatalf("AppendedRecords = %d after the undo, want 1", got)
	}
	for i := 3; i < 5; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.ReadFrom(past, 0); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("ReadFrom past the undo = %v, want ErrSegmentGone", err)
	}
	recs, _, err = l.ReadFrom(kept, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(recordTimes(recs)); got != "[3 4]" {
		t.Fatalf("ReadFrom short of the undo read %s, want [3 4]", got)
	}
}
