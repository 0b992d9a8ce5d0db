package wal

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rating"
)

func testOptions(fs faultinject.FS) Options {
	return Options{Dir: "w", FS: fs, Policy: SyncAlways, SegmentBytes: 1 << 20}
}

func mkRating(i int) Record {
	return RatingRecord(rating.Rating{
		Rater:  rating.RaterID(i % 7),
		Object: rating.ObjectID(i % 3),
		Value:  float64(i%10) / 10,
		Time:   float64(i),
	})
}

func recordTimes(recs []Record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.Type == TypeRating {
			out[i] = r.Rating.Time
		} else {
			out[i] = r.Start
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, rec, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
	var want []Record
	for i := 0; i < 50; i++ {
		r := mkRating(i)
		if i%10 == 9 {
			r = BarrierRecord(uint64(i/10+1), float64(i-10), float64(i))
		}
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i := range want {
		if rec2.Records[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, rec2.Records[i], want[i])
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := testOptions(fs)
	opts.SegmentBytes = 128 // a few frames per segment
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentSeq() < 3 {
		t.Fatalf("no rotation happened: seq %d", l.SegmentSeq())
	}
	l.Close()

	_, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 40 || rec.Segments < 4 {
		t.Fatalf("records=%d segments=%d", len(rec.Records), rec.Segments)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := testOptions(fs)
	opts.SegmentBytes = 128
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	state := "state-after-30"
	if err := l.Snapshot(func(w io.Writer) error {
		_, err := io.WriteString(w, state)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 35; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Covered segments are gone from the durable view; only the
	// post-snapshot tail remains (2 segments: 5 records rotate once
	// at this segment size).
	segs := 0
	for name := range fs.DurableFiles() {
		if seq, ok := parseSeq(strings.TrimPrefix(name, "w/"), segmentPrefix, segmentSuffix); ok {
			segs++
			if seq < 30/4 {
				t.Fatalf("covered segment %s survived compaction", name)
			}
		}
	}
	if segs != 2 {
		t.Fatalf("%d segments after compaction, want 2", segs)
	}

	_, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != state {
		t.Fatalf("snapshot %q, want %q", rec.Snapshot, state)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("tail has %d records, want 5", len(rec.Records))
	}
	if rec.Records[0].Rating.Time != 30 {
		t.Fatalf("tail starts at %+v", rec.Records[0])
	}
}

func TestSecondSnapshotSupersedesFirst(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := testOptions(fs)
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	writeState := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	l.Append(mkRating(0))
	if err := l.Snapshot(writeState("one")); err != nil {
		t.Fatal(err)
	}
	l.Append(mkRating(1))
	if err := l.Snapshot(writeState("two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "two" || len(rec.Records) != 0 {
		t.Fatalf("snapshot=%q tail=%d", rec.Snapshot, len(rec.Records))
	}
	snaps := 0
	for name := range fs.DurableFiles() {
		if strings.Contains(name, snapPrefix) {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want 1", snaps)
	}
}

func TestAppendAfterRecoveryContinuesLog(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	l.Append(mkRating(0))
	l.Close()
	l2, rec, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("tail %d", len(rec.Records))
	}
	l2.Append(mkRating(1))
	l2.Close()
	_, rec2, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 2 {
		t.Fatalf("after reopen-append: %d records", len(rec2.Records))
	}
}

func TestFailedAppendSealsSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject one short write; the append must fail and the log must
	// keep the damage out of the record stream.
	fail := true
	fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
		if op.Kind == "write" && fail {
			fail = false
			return &faultinject.Fault{Err: faultinject.ErrInjected, Keep: 5}
		}
		return nil
	})
	if err := l.Append(mkRating(3)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	// The log stays usable.
	for i := 4; i < 6; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	_, rec, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	got := recordTimes(rec.Records)
	want := []float64{0, 1, 2, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.Torn {
		t.Fatal("sealed damage leaked into recovery as a tear")
	}
}

func TestOrphanTempFileRemoved(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	l.Append(mkRating(0))
	l.Close()
	// Simulate a crash mid-snapshot: a stray .tmp file.
	files := fs.DurableFiles()
	files["w/snap-00000099.json.tmp"] = []byte("partial")
	fs2 := faultinject.NewMemFSFromFiles(files)
	var warned bool
	opts := testOptions(fs2)
	opts.Warnf = func(string, ...any) { warned = true }
	_, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Snapshot != nil {
		t.Fatalf("recovery: %+v", rec)
	}
	if !warned {
		t.Fatal("orphan temp file not warned about")
	}
}

func TestRecordEncodingExhaustive(t *testing.T) {
	cases := []Record{
		RatingRecord(rating.Rating{Rater: -1, Object: 1 << 40, Value: 0.123456789, Time: -7.5}),
		BarrierRecord(1, 0, 30),
		BarrierRecord(2, -1e300, 1e300),
		BarrierRecord(0, 0, 30),
		BarrierRecord(1<<63, -7.25, 1e300),
	}
	for _, want := range cases {
		frame := appendFrame(nil, want)
		recs, good, err := parseFrames(frame)
		if err != nil || good != len(frame) || len(recs) != 1 || recs[0] != want {
			t.Fatalf("round trip %+v: recs=%v good=%d err=%v", want, recs, good, err)
		}
	}
}

func TestCloseIsIdempotentAndAppendAfterCloseFails(t *testing.T) {
	fs := faultinject.NewMemFS()
	l, _, err := Open(testOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkRating(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestOnRealFilesystem(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir + "/wal", Policy: SyncAlways, SegmentBytes: 256}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(func(w io.Writer) error {
		_, err := io.WriteString(w, "real-fs-state")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "real-fs-state" || len(rec.Records) != 5 {
		t.Fatalf("real fs recovery: snapshot=%q tail=%d", rec.Snapshot, len(rec.Records))
	}
}
