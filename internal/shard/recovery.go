package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/wal"
)

// shardSnapshotVersion is bumped on incompatible wrapper changes.
const shardSnapshotVersion = 1

// shardSnapshot is the on-disk envelope of one shard's snapshot: the
// shard's ratings plus the full global trust record set (every shard
// snapshot is a self-sufficient trust carrier), tagged with the shard
// layout it was written under and the last maintenance barrier folded
// into its trust records. Recovery uses BarrierSeq to pick the newest
// trust state and to skip replaying windows the snapshot already
// reflects.
type shardSnapshot struct {
	Version    int    `json:"version"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	BarrierSeq uint64 `json:"barrierSeq"`
	// WindowEnd is the engine's maintenance-window high-water mark at
	// snapshot time (additive; absent in older snapshots). Recovery
	// restores it so streaming detection knows which auto windows are
	// already durably charged.
	WindowEnd float64         `json:"windowEnd,omitempty"`
	State     json.RawMessage `json:"state"`
}

// WriteShardSnapshot serializes shard i's state (plus the global
// trust records) as a shard snapshot with the given barrier sequence.
// The envelope is written by hand around the state's bytes, in one
// Write: the bytes json.Encoder writes for shardSnapshot, without its
// second pass over the state, which as a json.RawMessage would be
// validated and compacted only to drop Encode's trailing newline.
func WriteShardSnapshot(e *Engine, i int, barrierSeq uint64, w io.Writer) error {
	if i < 0 || i >= len(e.states) {
		return fmt.Errorf("shard: snapshot shard %d of %d", i, len(e.states))
	}
	view := e.shardView(i)
	var buf bytes.Buffer
	buf.WriteString(`{"version":`)
	buf.WriteString(strconv.Itoa(shardSnapshotVersion))
	buf.WriteString(`,"shard":`)
	buf.WriteString(strconv.Itoa(i))
	buf.WriteString(`,"shards":`)
	buf.WriteString(strconv.Itoa(len(e.states)))
	buf.WriteString(`,"barrierSeq":`)
	buf.WriteString(strconv.FormatUint(barrierSeq, 10))
	if end := e.LastWindowEnd(); end != 0 { // omitempty
		f, err := json.Marshal(end)
		if err != nil {
			return fmt.Errorf("shard: snapshot encode: %w", err)
		}
		buf.WriteString(`,"windowEnd":`)
		buf.Write(f)
	}
	buf.WriteString(`,"state":`)
	if err := view.Encode(&buf); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	buf.Truncate(buf.Len() - 1) // the state's trailing newline
	buf.WriteString("}\n")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("shard: snapshot encode: %w", err)
	}
	return nil
}

func decodeShardSnapshot(data []byte) (shardSnapshot, core.StateView, error) {
	var snap shardSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return shardSnapshot{}, core.StateView{}, fmt.Errorf("shard: snapshot decode: %w", err)
	}
	if snap.Version != shardSnapshotVersion {
		return shardSnapshot{}, core.StateView{}, fmt.Errorf("shard: snapshot version %d", snap.Version)
	}
	view, err := core.DecodeSnapshot(bytes.NewReader(snap.State))
	if err != nil {
		return shardSnapshot{}, core.StateView{}, err
	}
	return snap, view, nil
}

// ConsistencyError reports that the per-shard WAL tails cannot be
// merged into one history: a maintenance barrier is present in some
// logs but missing, reordered or mismatched in another — damage that
// a crash cannot produce (crashes only tear the final broadcast, and
// the journal stops accepting work after a partial broadcast).
// Recovery fails loudly rather than serving trust state computed from
// a different rating history than the one logged.
type ConsistencyError struct {
	Shard  int
	Seq    uint64
	Detail string
}

func (e *ConsistencyError) Error() string {
	return fmt.Sprintf("shard: log %d inconsistent at barrier %d: %s", e.Shard, e.Seq, e.Detail)
}

// RecoveredShard is one shard log's wal.Open outcome.
type RecoveredShard struct {
	// Snapshot is the shard's latest durable snapshot bytes, nil if
	// none.
	Snapshot []byte
	// Records is the shard log's tail to replay on top of it.
	Records []wal.Record
}

// RecoverStats reports what Recover reconstructed.
type RecoverStats struct {
	// SnapshotRatings is how many ratings the shard snapshots seeded.
	SnapshotRatings int
	// Applied is how many logged ratings replayed cleanly.
	Applied int
	// Skipped is how many logged ratings failed to apply and were
	// dropped with a warning.
	Skipped int
	// Windows is how many maintenance barriers replayed as windows.
	Windows int
	// Dropped is how many trailing barriers (a crash mid-broadcast)
	// were discarded.
	Dropped int
	// NextSeq is the barrier sequence the journal should issue next.
	NextSeq uint64
	// LastWindowEnd is the recovered maintenance-window high-water
	// mark (snapshots plus replayed barriers); EnableStreaming's
	// ResumeAfter starts here.
	LastWindowEnd float64
	// Remapped reports that ratings were rerouted because the shard
	// count changed (or snapshots disagreed with the log layout).
	Remapped bool
}

// Recover rebuilds e from per-shard WAL recoveries: seed state from
// the shard snapshots (trust records from the one with the highest
// barrier sequence, ratings rerouted under e's current shard count),
// then merge the log tails into one history — ratings interleave
// freely between barriers, barriers align across every log by
// sequence number — replaying each aligned barrier as a maintenance
// window. Barriers at or below the seeding snapshot's height are
// already reflected in its trust records and are consumed per log
// without alignment (an interrupted snapshot pass leaves logs
// rebased at different heights); alignment is enforced only for
// barriers above it. A live barrier present in only some logs is
// accepted only as the very last event (a torn broadcast) and dropped
// with a warning; any earlier divergence returns a ConsistencyError
// and leaves e untouched beyond what was already applied.
//
// The number of recovered logs does not need to match e's shard
// count: placement is a pure function of object ID and shard count,
// so a changed -shards remaps cleanly (Stats.Remapped).
func Recover(e *Engine, shards []RecoveredShard, warnf func(format string, args ...any)) (RecoverStats, error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	var stats RecoverStats
	if len(shards) != len(e.states) {
		stats.Remapped = true
	}

	// Seed from snapshots: newest barrier wins the trust records;
	// ratings from every snapshot reroute by hash.
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
	// loadView cleared the engine's window mark; restore the
	// durable high-water the snapshots recorded. Replayed barriers
	// below raise it further through ProcessWindow itself.
	e.setLastWindowEnd(windowEnd)
	stats.NextSeq = trustBase + 1

	// Merge the log tails round by round: apply every shard's ratings
	// up to its next live barrier, then require the live barriers to
	// agree before replaying the window they announce.
	cursors := make([]int, len(shards))
	for {
		// Phase 1: drain rating records up to the next live barrier.
		// Barriers already folded into the seeding snapshot (Seq <=
		// trustBase) are consumed per log WITHOUT cross-log alignment:
		// snapshots are written one log at a time, so a crash partway
		// through the pass legitimately leaves a rebased log's tail
		// empty while a lagging log still carries barriers below the
		// newest snapshot's height. Their windows are already reflected
		// in the seeded trust records; the ratings around them are not,
		// and still apply.
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

		// Phase 2: align the barriers.
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
				return stats, &ConsistencyError{
					Shard: i,
					Seq:   rec.Seq,
					Detail: fmt.Sprintf("barrier (seq=%d, [%g,%g)) does not match log %d's (seq=%d, [%g,%g))",
						rec.Seq, rec.Start, rec.End, barrierShard, barrier.Seq, barrier.Start, barrier.End),
				}
			}
			present++
		}
		if present == 0 {
			break // all logs drained
		}
		if exhausted > 0 {
			// A barrier some logs never saw: legitimate only as the
			// torn final broadcast — nothing may follow it anywhere.
			for i, sh := range shards {
				if cursors[i] < len(sh.Records) && cursors[i]+1 < len(sh.Records) {
					return stats, &ConsistencyError{
						Shard: i,
						Seq:   barrier.Seq,
						Detail: fmt.Sprintf("barrier missing from %d log(s) but log %d continues past it",
							exhausted, i),
					}
				}
			}
			warnf("shard: dropping torn barrier %d [%g,%g) present in %d of %d logs",
				barrier.Seq, barrier.Start, barrier.End, present, len(shards))
			stats.Dropped++
			break
		}
		// All logs agree on the barrier; consume it everywhere. Phase 1
		// already consumed everything at or below trustBase, so this
		// window is not yet reflected in the seeded trust records.
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
