package wal

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rating"
	"repro/internal/telemetry"
)

// TestMetricsCountAppendsAndRecovery appends through an instrumented
// log, crashes it, and checks the append/fsync/recovery counters.
func TestMetricsCountAppendsAndRecovery(t *testing.T) {
	fs := faultinject.NewMemFS()
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)

	log, rec, err := Open(Options{Dir: "wal", FS: fs, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records))
	}
	r := rating.Rating{Rater: 1, Object: 2, Value: 0.5, Time: 3}
	if err := log.Append(RatingRecord(r)); err != nil {
		t.Fatal(err)
	}
	tok, err := log.AppendAllBuffered([]Record{RatingRecord(r), BarrierRecord(1, 0, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Commit(tok); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if got := m.AppendedRecords.Value(); got != 3 {
		t.Fatalf("appended = %d, want 3", got)
	}
	if m.AppendSeconds.Count() != 2 { // one Append + one AppendAllBuffered write
		t.Fatalf("append latencies = %d, want 2", m.AppendSeconds.Count())
	}
	if m.FsyncSeconds.Count() == 0 {
		t.Fatal("no fsync observed under SyncAlways")
	}

	// Reopen with fresh metrics: recovery reads all three records back.
	reg2 := telemetry.NewRegistry()
	m2 := NewMetrics(reg2)
	log2, rec2, err := Open(Options{Dir: "wal", FS: fs, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(rec2.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec2.Records))
	}
	if got := m2.RecoveredRecords.Value(); got != 3 {
		t.Fatalf("recovered counter = %d, want 3", got)
	}
	if got := m2.SegmentSeq.Value(); got != float64(log2.SegmentSeq()) {
		t.Fatalf("segment gauge = %g, want %d", got, log2.SegmentSeq())
	}

	var sb strings.Builder
	if err := reg2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wal_recovered_records_total 3", "wal_segment_seq"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsCountTornRecovery corrupts a tail and checks the torn
// counter.
func TestMetricsCountTornRecovery(t *testing.T) {
	fs := faultinject.NewMemFS()
	log, _, err := Open(Options{Dir: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	r := rating.Rating{Rater: 1, Object: 2, Value: 0.5, Time: 3}
	for i := 0; i < 4; i++ {
		if err := log.Append(RatingRecord(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: chop the last 5 bytes of the segment.
	name := "wal/" + segmentName(log.SegmentSeq())
	data, _, err := readFile(fs, name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := truncateFile(fs, name, int64(len(data)-5)); err != nil {
		t.Fatal(err)
	}

	m := NewMetrics(telemetry.NewRegistry())
	log2, rec, err := Open(Options{Dir: "wal", FS: fs, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if !rec.Torn || len(rec.Records) != 3 {
		t.Fatalf("recovery = torn:%v records:%d, want torn with 3", rec.Torn, len(rec.Records))
	}
	if got := m.TornSegments.Value(); got != 1 {
		t.Fatalf("torn counter = %d, want 1", got)
	}
}

// TestMetricsCountFailedCommits checks that wal_append_errors_total
// counts each call that fails under SyncAlways exactly once, on both
// write paths: an fsync failure inside Append, an fsync failure inside
// Commit, and records lost to a failed rotation sync. A closed log's
// ErrClosed is not an append failure and stays uncounted.
func TestMetricsCountFailedCommits(t *testing.T) {
	failSyncs := func(n int) faultinject.Injector {
		return func(op faultinject.Op) *faultinject.Fault {
			if op.Kind == "sync" && n != 0 {
				n--
				return &faultinject.Fault{Err: faultinject.ErrInjected}
			}
			return nil
		}
	}
	buffered := func(l *Log) (SyncToken, error) { return l.AppendAllBuffered([]Record{mkRating(0)}) }
	commit := func(l *Log) error {
		tok, err := buffered(l)
		if err != nil {
			return err
		}
		return l.Commit(tok)
	}
	for _, tc := range []struct {
		name     string
		segBytes int64
		// fail injects its fault and returns the failing call's error.
		fail func(l *Log, fs *faultinject.MemFS) error
		want error
	}{
		{"append/fsync", 1 << 20, func(l *Log, fs *faultinject.MemFS) error {
			fs.SetInjector(failSyncs(1))
			return l.Append(mkRating(0))
		}, faultinject.ErrInjected},
		{"buffered/fsync", 1 << 20, func(l *Log, fs *faultinject.MemFS) error {
			fs.SetInjector(failSyncs(1))
			return commit(l)
		}, faultinject.ErrInjected},
		{"buffered/rotation-sync", 1, func(l *Log, fs *faultinject.MemFS) error {
			t1, err := buffered(l)
			if err != nil {
				return err
			}
			// The next append rotates; its sync of the outgoing
			// segment fails, so t1's record may be gone.
			fs.SetInjector(failSyncs(1))
			if _, err := buffered(l); err != nil {
				return err
			}
			return l.Commit(t1)
		}, errUndone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultinject.NewMemFS()
			m := NewMetrics(telemetry.NewRegistry())
			opts := testOptions(fs)
			opts.SegmentBytes = tc.segBytes
			opts.Metrics = m
			l, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.fail(l, fs); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := m.AppendErrors.Value(); got != 1 {
				t.Fatalf("append errors = %d after one failed call, want 1", got)
			}
			fs.SetInjector(nil)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := commit(l); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
			if got := m.AppendErrors.Value(); got != 1 {
				t.Fatalf("append errors = %d after ErrClosed, want 1", got)
			}
		})
	}
}
