package wal_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

// traceObjects is how many objects the boundary trace rates.
const traceObjects = 4

// trace builds a deterministic workload: n ratings over several
// objects with a maintenance window every procEvery ratings, logged as
// barrier records numbered from 1.
func trace(seed int64, n, procEvery int) []wal.Record {
	rng := randx.New(seed)
	var recs []wal.Record
	lastProc := 0.0
	seq := uint64(0)
	for i := 0; i < n; i++ {
		tm := float64(i) * 0.3
		recs = append(recs, wal.RatingRecord(rating.Rating{
			Rater:  rating.RaterID(rng.Intn(12)),
			Object: rating.ObjectID(rng.Intn(traceObjects)),
			Value:  randx.Quantize(rng.Float64(), 11, true),
			Time:   tm,
		}))
		if (i+1)%procEvery == 0 && tm > lastProc {
			seq++
			recs = append(recs, wal.BarrierRecord(seq, lastProc, tm))
			lastProc = tm
		}
	}
	return recs
}

// ratingSystem is what apply drives: the core.System reference or a
// shard.Engine.
type ratingSystem interface {
	Submit(r rating.Rating) error
	ProcessWindow(start, end float64) (core.ProcessReport, error)
}

// apply feeds one logged record to sys: a rating is submitted, a
// barrier runs its window.
func apply(t *testing.T, sys ratingSystem, rec wal.Record) {
	t.Helper()
	var err error
	if rec.Type == wal.TypeBarrier {
		_, err = sys.ProcessWindow(rec.Start, rec.End)
	} else {
		err = sys.Submit(rec.Rating)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", rec, err)
	}
}

func newEngine(t *testing.T) *shard.Engine {
	t.Helper()
	e, err := shard.NewEngine(core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fingerprint(t *testing.T, sys shardtest.System) string {
	t.Helper()
	fp, err := shardtest.Fingerprint(sys, traceObjects)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestCrashAtEveryRecordBoundary is the headline durability guarantee:
// for a trace of 200+ ratings with maintenance windows logged as
// barriers, crash the filesystem after every acknowledged record,
// recover the way a restarting `ratingd -shards 1` does (wal.Open,
// then shard.Recover into a fresh one-shard engine), and require the
// recovered engine's fingerprint to be byte-identical to a
// never-crashed core.System reference fed the same prefix. A
// mid-trace shard snapshot makes later boundaries exercise the
// snapshot+tail path too.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	recs := trace(7, 210, 40)

	fs := faultinject.NewMemFS()
	opts := wal.Options{Dir: "w", FS: fs, Policy: wal.SyncAlways, SegmentBytes: 1 << 10}
	l, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The shadow engine tracks exactly what has been appended, so the
	// mid-trace snapshot writes the correct covered state. Like
	// ratingd's journal, it stamps the snapshot with the last barrier
	// logged, so recovery skips no window and replays none twice.
	shadow := newEngine(t)
	var lastSeq uint64
	disks := make([]map[string][]byte, 0, len(recs))
	for i, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		apply(t, shadow, rec)
		if rec.Type == wal.TypeBarrier {
			lastSeq = rec.Seq
		}
		if i == len(recs)/2 {
			if err := l.Snapshot(func(w io.Writer) error {
				return shard.WriteShardSnapshot(shadow, 0, lastSeq, w)
			}); err != nil {
				t.Fatal(err)
			}
		}
		disks = append(disks, fs.DurableFiles())
	}
	l.Close()

	// Reference states for every prefix, built once.
	ref, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lastSeq = 0
	fromSnapshot := 0
	for k, rec := range recs {
		apply(t, ref, rec)
		if rec.Type == wal.TypeBarrier {
			lastSeq = rec.Seq
		}
		want := fingerprint(t, shardtest.Oracle{System: ref})

		fs2 := faultinject.NewMemFSFromFiles(disks[k])
		_, recov, err := wal.Open(wal.Options{Dir: "w", FS: fs2, Policy: wal.SyncAlways, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatalf("boundary %d: recovery failed: %v", k, err)
		}
		if recov.Snapshot != nil {
			fromSnapshot++
		}
		got := newEngine(t)
		stats, err := shard.Recover(got, []shard.RecoveredShard{{Snapshot: recov.Snapshot, Records: recov.Records}}, nil)
		if err != nil {
			t.Fatalf("boundary %d: shard recovery: %v", k, err)
		}
		if stats.Skipped != 0 || stats.Dropped != 0 {
			t.Fatalf("boundary %d: recovery skipped %d ratings and dropped %d barriers", k, stats.Skipped, stats.Dropped)
		}
		if stats.NextSeq != lastSeq+1 {
			t.Fatalf("boundary %d: next barrier seq %d, want %d", k, stats.NextSeq, lastSeq+1)
		}
		if g := fingerprint(t, got); g != want {
			t.Fatalf("boundary %d: recovered state diverges from reference\ngot:\n%s\nwant:\n%s", k, g, want)
		}
	}
	if fromSnapshot == 0 {
		t.Fatal("no boundary recovered through the mid-trace snapshot")
	}
}
