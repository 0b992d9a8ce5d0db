package shard

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/shard/shardtest"
	"repro/internal/wal"
)

// referenceRecover is Recover as it ran before its passes went one
// goroutine per shard: snapshots decoded one after the other and
// every logged rating applied with its own Submit, log by log. The
// concurrent Recover must leave an engine, stats and warnings
// identical to it.
func referenceRecover(e *Engine, shards []RecoveredShard, warnf func(format string, args ...any)) (RecoverStats, error) {
	var stats RecoverStats
	if len(shards) != len(e.states) {
		stats.Remapped = true
	}
	var (
		records   core.StateView
		haveTrust bool
		trustBase uint64
		windowEnd float64
	)
	views := make([]*core.StateView, len(shards))
	for i, sh := range shards {
		if sh.Snapshot == nil {
			continue
		}
		snap, view, err := decodeShardSnapshot(sh.Snapshot)
		if err != nil {
			return stats, fmt.Errorf("shard %d: %w", i, err)
		}
		if snap.Shards != len(e.states) || snap.Shard != i {
			stats.Remapped = true
		}
		views[i] = &view
		if snap.WindowEnd > windowEnd {
			windowEnd = snap.WindowEnd
		}
		if !haveTrust || snap.BarrierSeq > trustBase {
			haveTrust = true
			trustBase = snap.BarrierSeq
			records = view
		}
	}
	var seed core.StateView
	if haveTrust {
		seed.Records = records.Records
	}
	for _, view := range views {
		if view != nil {
			seed.Ratings = append(seed.Ratings, view.Ratings...)
		}
	}
	if haveTrust || len(seed.Ratings) > 0 {
		if err := e.loadView(seed); err != nil {
			return stats, err
		}
		stats.SnapshotRatings = len(seed.Ratings)
	}
	e.setLastWindowEnd(windowEnd)
	stats.NextSeq = trustBase + 1

	cursors := make([]int, len(shards))
	for {
		for i, sh := range shards {
			for cursors[i] < len(sh.Records) {
				rec := sh.Records[cursors[i]]
				if rec.Type == wal.TypeBarrier {
					if rec.Seq > trustBase {
						break
					}
					cursors[i]++
					continue
				}
				cursors[i]++
				if err := e.Submit(rec.Rating); err != nil {
					warnf("shard: replay log %d rating: %v", i, err)
					stats.Skipped++
				} else {
					stats.Applied++
				}
			}
		}
		present, exhausted := 0, 0
		var barrier wal.Record
		barrierShard := -1
		for i, sh := range shards {
			if cursors[i] >= len(sh.Records) {
				exhausted++
				continue
			}
			rec := sh.Records[cursors[i]]
			if present == 0 {
				barrier, barrierShard = rec, i
			} else if rec.Seq != barrier.Seq || rec.Start != barrier.Start || rec.End != barrier.End {
				return stats, &ConsistencyError{Shard: i, Seq: rec.Seq,
					Detail: fmt.Sprintf("barrier does not match log %d's", barrierShard)}
			}
			present++
		}
		if present == 0 {
			break
		}
		if exhausted > 0 {
			for i, sh := range shards {
				if cursors[i] < len(sh.Records) && cursors[i]+1 < len(sh.Records) {
					return stats, &ConsistencyError{Shard: i, Seq: barrier.Seq, Detail: "torn barrier not last"}
				}
			}
			warnf("shard: dropping torn barrier %d [%g,%g) present in %d of %d logs",
				barrier.Seq, barrier.Start, barrier.End, present, len(shards))
			stats.Dropped++
			break
		}
		for i := range shards {
			cursors[i]++
		}
		if _, err := e.ProcessWindow(barrier.Start, barrier.End); err != nil {
			return stats, fmt.Errorf("shard: replay barrier %d: %w", barrier.Seq, err)
		}
		stats.Windows++
		if barrier.Seq >= stats.NextSeq {
			stats.NextSeq = barrier.Seq + 1
		}
	}
	stats.LastWindowEnd = e.LastWindowEnd()
	return stats, nil
}

const replayObjects = 9

// replayLogs is a seeded history as a journal with `written` shard
// logs leaves it after a crash: each month's ratings in the log their
// object hashes to, an invalid rating after every 97th, and the
// month's barrier in every log. Every log is snapshotted after month
// 2, then only log 0 after month 3 (a snapshot pass cut short), and
// the last month's barrier reaches log 0 alone (a torn broadcast).
func replayLogs(t *testing.T, seed int64, written int) []RecoveredShard {
	t.Helper()
	months := shardtest.Workload{Seed: seed, Objects: replayObjects, Months: 6, PerMonth: 200}.Generate()
	live, err := NewEngine(core.Config{}, written)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]RecoveredShard, written)
	snapshot := func(i int, seq uint64) {
		var buf bytes.Buffer
		if err := WriteShardSnapshot(live, i, seq, &buf); err != nil {
			t.Fatal(err)
		}
		logs[i] = RecoveredShard{Snapshot: buf.Bytes()}
	}
	for m, month := range months {
		seq := uint64(m + 1)
		for k, r := range month.Ratings {
			i := ShardFor(r.Object, written)
			logs[i].Records = append(logs[i].Records, wal.RatingRecord(r))
			if k%97 == 0 {
				bad := r
				bad.Value = 1 + float64(k%5)
				logs[i].Records = append(logs[i].Records, wal.RatingRecord(bad))
			}
		}
		if err := live.SubmitAll(month.Ratings); err != nil {
			t.Fatal(err)
		}
		last := m == len(months)-1
		for i := range logs {
			if !last || i == 0 {
				logs[i].Records = append(logs[i].Records, wal.BarrierRecord(seq, month.Start, month.End))
			}
		}
		if !last {
			if _, err := live.ProcessWindow(month.Start, month.End); err != nil {
				t.Fatal(err)
			}
		}
		switch m {
		case 1:
			for i := range logs {
				snapshot(i, seq)
			}
		case 2:
			snapshot(0, seq)
		}
	}
	return logs
}

// TestRecoverReplayInvariance pins the concurrent Recover to the
// serial referenceRecover: the same fingerprint, stores holding the
// same ratings in the same order, the same stats and the same
// warnings, at 1, 2, 4 and 8 shards and with logs written at 2 shards
// recovered at 1 and at 4.
func TestRecoverReplayInvariance(t *testing.T) {
	for _, seed := range []int64{41, 42} {
		for _, c := range []struct{ written, recovered int }{
			{1, 1}, {2, 2}, {4, 4}, {8, 8}, {2, 1}, {2, 4},
		} {
			name := fmt.Sprintf("seed%d/%dto%d", seed, c.written, c.recovered)
			logs := replayLogs(t, seed, c.written)
			recoverWith := func(fn func(*Engine, []RecoveredShard, func(string, ...any)) (RecoverStats, error)) (*Engine, RecoverStats, []string) {
				e, err := NewEngine(core.Config{}, c.recovered)
				if err != nil {
					t.Fatal(err)
				}
				var warnings []string
				stats, err := fn(e, logs, func(format string, args ...any) {
					warnings = append(warnings, fmt.Sprintf(format, args...))
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return e, stats, warnings
			}
			got, gotStats, gotWarn := recoverWith(Recover)
			want, wantStats, wantWarn := recoverWith(referenceRecover)

			if gotStats != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", name, gotStats, wantStats)
			}
			if wantStats.Skipped == 0 || wantStats.SnapshotRatings == 0 || wantStats.Windows == 0 {
				t.Fatalf("%s: history exercises too little: %+v", name, wantStats)
			}
			if !reflect.DeepEqual(gotWarn, wantWarn) {
				t.Fatalf("%s: warnings\n%q\nwant\n%q", name, gotWarn, wantWarn)
			}
			gotView, wantView := got.View(), want.View()
			if !reflect.DeepEqual(gotView.Ratings, wantView.Ratings) {
				t.Fatalf("%s: stores differ from the serial replay's", name)
			}
			gotFP, err := shardtest.Fingerprint(got, replayObjects)
			if err != nil {
				t.Fatal(err)
			}
			wantFP, err := shardtest.Fingerprint(want, replayObjects)
			if err != nil {
				t.Fatal(err)
			}
			if gotFP != wantFP {
				t.Fatalf("%s: fingerprint differs from the serial replay's", name)
			}
		}
	}
}

// serialStreaming is EnableStreaming's rebuild as it ran before it
// went one goroutine per shard, without publishing the result or
// starting pumps: every shard's streams rebuilt one shard after the
// other, accruing straight into the alert log.
func serialStreaming(t *testing.T, e *Engine, cfg StreamConfig) *Streaming {
	t.Helper()
	s, err := e.newStreaming(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.lockAll()
	defer e.unlockAll()
	s.sink.seedWindowFlags(e.maliciousRaters())
	for i, st := range e.states {
		ss := s.shards[i]
		for _, obj := range st.store.Objects() {
			rs, err := st.store.ForObject(obj)
			if err != nil {
				t.Fatal(err)
			}
			pushed := 0
			for _, r := range rs {
				if s.pushOne(i, ss, r) {
					pushed++
				}
			}
			s.countPushed(i, pushed)
			if n := len(rs); n > 0 {
				s.noteTime(rs[n-1].Time)
			}
		}
	}
	return s
}

// TestStreamRebuildMatchesSerial pins EnableStreaming's concurrent
// rebuild to serialStreaming: the same fingerprint and the same alert
// list (sequence, rater, source, suspicion bits and FirstFlagged),
// at 2, 4 and 8 shards. One object on shard 0 outweighs the rest, so
// shard 0 finishes its rebuild last: an accrual fold in completion
// order rather than shard order would change the alerts.
func TestStreamRebuildMatchesSerial(t *testing.T) {
	cfg := StreamConfig{
		Detector:       detector.Config{Size: 30, Step: 15, Threshold: 0.08},
		AlertThreshold: 0.3,
	}
	for _, seed := range []int64{3, 17} {
		months := shardtest.Workload{Seed: seed, Objects: 12, Months: 3, PerMonth: 600}.Generate()
		for _, shards := range []int{2, 4, 8} {
			name := fmt.Sprintf("seed%d/%dshards", seed, shards)
			load := func() *Engine {
				e, err := NewEngine(core.Config{}, shards)
				if err != nil {
					t.Fatal(err)
				}
				for m, month := range months {
					if err := e.SubmitAll(month.Ratings); err != nil {
						t.Fatal(err)
					}
					if m == 0 {
						if _, err := e.ProcessWindow(month.Start, month.End); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := e.SubmitAll(heavyObject(months, shards)); err != nil {
					t.Fatal(err)
				}
				return e
			}
			got, err := load().EnableStreaming(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := serialStreaming(t, load(), cfg)
			if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
				t.Fatalf("%s: fingerprint\n%s\nwant\n%s", name, g, w)
			}
			gotAlerts, _ := got.Alerts().Alerts(0)
			wantAlerts, _ := want.Alerts().Alerts(0)
			if len(wantAlerts) < 2 {
				t.Fatalf("%s: %d alerts, want a list where order can differ", name, len(wantAlerts))
			}
			if len(gotAlerts) != len(wantAlerts) {
				t.Fatalf("%s: %d alerts, want %d", name, len(gotAlerts), len(wantAlerts))
			}
			for k, w := range wantAlerts {
				g := gotAlerts[k]
				if g.Seq != w.Seq || g.Rater != w.Rater || g.Source != w.Source ||
					math.Float64bits(g.Suspicion) != math.Float64bits(w.Suspicion) || g.FirstFlagged != w.FirstFlagged {
					t.Fatalf("%s: alert %d = %+v, want %+v", name, k, g, w)
				}
			}
			got.Close()
			want.Close()
		}
	}
}

// heavyObject is a long run of ratings by the workload's raters on an
// object of its own, placed on shard 0, so the shard whose accruals
// fold first finishes its rebuild last.
func heavyObject(months []shardtest.Month, shards int) []rating.Rating {
	obj := rating.ObjectID(1000)
	for ShardFor(obj, shards) != 0 {
		obj++
	}
	var rs []rating.Rating
	for _, m := range months {
		for k, r := range m.Ratings {
			for rep := 0; rep < 4; rep++ {
				rs = append(rs, rating.Rating{Rater: r.Rater, Object: obj, Value: r.Value,
					Time: r.Time + float64(rep)*1e-3 + float64(k)*1e-9})
			}
		}
	}
	return rs
}
