package wal

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rating"
)

func testRating(i int) rating.Rating {
	return rating.Rating{Rater: rating.RaterID(i), Object: rating.ObjectID(i % 3), Value: float64(i%5) + 1, Time: float64(i)}
}

func openTestLog(t *testing.T, fsys faultinject.FS, segBytes int64) *Log {
	t.Helper()
	l, _, err := Open(Options{Dir: "wal", FS: fsys, Policy: SyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func readAllFrom(t *testing.T, l *Log, cur Cursor) ([]Record, Cursor) {
	t.Helper()
	var out []Record
	for {
		recs, next, err := l.ReadFrom(cur, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%+v): %v", cur, err)
		}
		out = append(out, recs...)
		if len(recs) == 0 && next == cur {
			return out, cur
		}
		cur = next
	}
}

// countingFS counts the bytes read from the files it opens.
type countingFS struct {
	faultinject.FS
	read atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultinject.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, read: &c.read}, nil
}

type countingFile struct {
	faultinject.File
	read *atomic.Int64
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// A replication poll reads only the segment bytes past its cursor: an
// idle poll at the live tail reads none, and catching up on one append
// reads just that record's frame.
func TestReadFromReadsOnlyPastCursor(t *testing.T) {
	fsys := &countingFS{FS: faultinject.NewMemFS()}
	l := openTestLog(t, fsys, 1<<20)
	for i := 0; i < 50; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	_, cur := readAllFrom(t, l, Cursor{Seg: l.SegmentSeq()})
	fsys.read.Store(0)
	for i := 0; i < 50; i++ {
		recs, next, err := l.ReadFrom(cur, 0)
		if err != nil || len(recs) != 0 || next != cur {
			t.Fatalf("idle poll: %d records, cursor %+v, err %v", len(recs), next, err)
		}
	}
	if got := fsys.read.Load(); got != 0 {
		t.Fatalf("50 idle polls read %d segment bytes, want 0", got)
	}
	if err := l.Append(RatingRecord(testRating(50))); err != nil {
		t.Fatalf("append: %v", err)
	}
	recs, next, err := l.ReadFrom(cur, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("catch-up poll: %d records, err %v", len(recs), err)
	}
	if got, want := fsys.read.Load(), next.Off-cur.Off; got != want {
		t.Fatalf("catching up one record read %d bytes, want its frame's %d", got, want)
	}
}

// A reader positioned at a torn final record must block (emit
// nothing), then resume cleanly once the next successful append lands
// in a fresh segment.
func TestReadFromTornTailBlocks(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 1<<20)
	for i := 0; i < 5; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	recs, cur := readAllFrom(t, l, Cursor{Seg: l.SegmentSeq()})
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if cur != l.Tail() {
		t.Fatalf("cursor %+v, want tail %+v", cur, l.Tail())
	}

	// Tear the live tail by hand: half a frame of garbage.
	name := path.Join("wal", segmentName(cur.Seg))
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	// The reader must stop before the tear, not emit garbage.
	for i := 0; i < 3; i++ {
		recs, next, err := l.ReadFrom(cur, 0)
		if err != nil {
			t.Fatalf("ReadFrom at tear: %v", err)
		}
		if len(recs) != 0 {
			t.Fatalf("reader emitted %d records from a torn tail", len(recs))
		}
		if next != cur {
			t.Fatalf("cursor advanced into tear: %+v", next)
		}
	}

	// The writer's own discipline would seal+rotate after a failed
	// append; emulate the aftermath by sealing the damaged segment so
	// the next append opens a fresh one.
	l.mu.Lock()
	l.sealed = true
	l.curSize += 6
	l.mu.Unlock()
	if err := l.Append(RatingRecord(testRating(99))); err != nil {
		t.Fatalf("append after seal: %v", err)
	}

	// Resume: the sealed segment's tear is now terminal, the reader
	// skips past it into the new segment and yields the new record.
	recs, next := readAllFrom(t, l, cur)
	if len(recs) != 1 || recs[0].Rating.Rater != 99 {
		t.Fatalf("after resume got %+v, want the single post-tear record", recs)
	}
	if next.Seg != l.SegmentSeq() {
		t.Fatalf("cursor segment %d, want live %d", next.Seg, l.SegmentSeq())
	}
}

// A reader whose cursor segment was compacted away must get a typed
// ErrSegmentGone directing it to snapshot re-bootstrap.
func TestReadFromRotatedAwaySegmentGone(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 1<<20)
	for i := 0; i < 4; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	old := Cursor{Seg: l.SegmentSeq()}
	if err := l.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte(`{}`)); return err }); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	_, _, err := l.ReadFrom(old, 0)
	if !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("read of compacted segment: err=%v, want ErrSegmentGone", err)
	}
	// Same for a cursor ahead of the live segment: some other log's
	// history, only a re-bootstrap can reconcile it.
	_, _, err = l.ReadFrom(Cursor{Seg: l.SegmentSeq() + 7}, 0)
	if !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("read ahead of live: err=%v, want ErrSegmentGone", err)
	}
}

// Barriers are returned alone, so a follower can align windows across
// shards without splitting a batch itself.
func TestReadFromBarrierBatching(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 1<<20)
	start := Cursor{Seg: l.SegmentSeq()}
	for i := 0; i < 3; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Append(BarrierRecord(1, 0, 10)); err != nil {
		t.Fatalf("append barrier: %v", err)
	}
	for i := 3; i < 5; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}

	recs, cur, err := l.ReadFrom(start, 0)
	if err != nil || len(recs) != 3 || recs[0].Type != TypeRating {
		t.Fatalf("batch 1: %d recs err=%v, want 3 ratings", len(recs), err)
	}
	recs, cur, err = l.ReadFrom(cur, 0)
	if err != nil || len(recs) != 1 || recs[0].Type != TypeBarrier || recs[0].Seq != 1 {
		t.Fatalf("batch 2: %+v err=%v, want lone barrier seq 1", recs, err)
	}
	recs, _, err = l.ReadFrom(cur, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("batch 3: %d recs err=%v, want 2 ratings", len(recs), err)
	}
}

// ReadFrom must follow rotation across segment boundaries and respect
// maxRecords.
func TestReadFromAcrossRotation(t *testing.T) {
	fsys := faultinject.NewMemFS()
	l := openTestLog(t, fsys, 64) // tiny segments force rotation
	start := Cursor{Seg: l.SegmentSeq()}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(RatingRecord(testRating(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.SegmentSeq() == start.Seg {
		t.Fatal("expected rotation with 64-byte segments")
	}
	var got []Record
	cur := start
	for len(got) < n {
		recs, next, err := l.ReadFrom(cur, 3)
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if len(recs) > 3 {
			t.Fatalf("maxRecords exceeded: %d", len(recs))
		}
		if len(recs) == 0 && next == cur {
			t.Fatalf("stalled at %+v with %d/%d records", cur, len(got), n)
		}
		got = append(got, recs...)
		cur = next
	}
	for i, r := range got {
		if r.Rating.Rater != rating.RaterID(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}
