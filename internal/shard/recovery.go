package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rating"
	"repro/internal/wal"
)

// shardSnapshotVersion is bumped on incompatible wrapper changes.
const shardSnapshotVersion = 1

// shardSnapshotHeader is the envelope of one shard's snapshot around
// its state (the shard's ratings plus the full global trust record
// set: every shard snapshot is a self-sufficient trust carrier): the
// shard layout it was written under and the last maintenance barrier
// folded into its trust records. Recovery uses BarrierSeq to pick the
// newest trust state and to skip replaying windows the snapshot
// already reflects.
type shardSnapshotHeader struct {
	Version    int    `json:"version"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	BarrierSeq uint64 `json:"barrierSeq"`
	// WindowEnd is the engine's maintenance-window high-water mark at
	// snapshot time (additive; absent in older snapshots). Recovery
	// restores it so streaming detection knows which auto windows are
	// already durably charged.
	WindowEnd float64 `json:"windowEnd,omitempty"`
}

// WriteShardSnapshot serializes shard i's state (plus the global
// trust records) as a shard snapshot with the given barrier sequence.
// The envelope is written by hand around the state's bytes, in one
// buffer and one Write: the bytes json.Encoder writes for the header's
// fields followed by the state as a json.RawMessage, without the
// encoder's second pass over the state, which would be validated and
// compacted only to drop Encode's trailing newline.
func WriteShardSnapshot(e *Engine, i int, barrierSeq uint64, w io.Writer) error {
	if i < 0 || i >= len(e.states) {
		return fmt.Errorf("shard: snapshot shard %d of %d", i, len(e.states))
	}
	view := e.shardView(i)
	b := []byte(`{"version":`)
	b = strconv.AppendInt(b, shardSnapshotVersion, 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(len(e.states)), 10)
	b = append(b, `,"barrierSeq":`...)
	b = strconv.AppendUint(b, barrierSeq, 10)
	if end := e.LastWindowEnd(); end != 0 { // omitempty
		f, err := json.Marshal(end)
		if err != nil {
			return fmt.Errorf("shard: snapshot encode: %w", err)
		}
		b = append(append(b, `,"windowEnd":`...), f...)
	}
	b = append(b, `,"state":`...)
	b, err := view.AppendEncode(b)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	b = append(b[:len(b)-1], "}\n"...) // over the state's trailing newline
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("shard: snapshot encode: %w", err)
	}
	return nil
}

// decodeShardSnapshot decodes one shard snapshot's envelope and state
// in one json.Unmarshal. Where the key "state" may repeat, it decodes
// the envelope with the state as a json.RawMessage and then the state:
// encoding/json merges a repeated key's values into a struct but keeps
// only the last one in a RawMessage, and the last one is the state.
func decodeShardSnapshot(data []byte) (shardSnapshotHeader, core.StateView, error) {
	var snap struct {
		shardSnapshotHeader
		State core.SnapshotDoc `json:"state"`
	}
	err := json.Unmarshal(data, &snap)
	if mayRepeatState(data) {
		var raw struct {
			shardSnapshotHeader
			State json.RawMessage `json:"state"`
		}
		if err = json.Unmarshal(data, &raw); err == nil {
			snap.shardSnapshotHeader, snap.State = raw.shardSnapshotHeader, core.SnapshotDoc{}
			err = json.Unmarshal(raw.State, &snap.State)
		}
	}
	if err != nil {
		return shardSnapshotHeader{}, core.StateView{}, fmt.Errorf("shard: snapshot decode: %w", err)
	}
	if snap.Version != shardSnapshotVersion {
		return shardSnapshotHeader{}, core.StateView{}, fmt.Errorf("shard: snapshot version %d", snap.Version)
	}
	view, err := snap.State.View()
	return snap.shardSnapshotHeader, view, err
}

// mayRepeatState reports whether data may hold the key "state" more
// than once as encoding/json matches keys: case-insensitively and
// after unescaping. It over-reports, counting any escape or non-ASCII
// byte as a possible repeat; the snapshots WriteShardSnapshot writes
// hold neither.
func mayRepeatState(data []byte) bool {
	n := 0
	for i, c := range data {
		if c == '\\' || c >= utf8.RuneSelf {
			return true
		}
		if c == '"' && i+6 < len(data) && data[i+6] == '"' && bytes.EqualFold(data[i+1:i+6], []byte("state")) {
			n++
		}
	}
	return n > 1
}

// replayChunk is how many ratings recovery hands SubmitShard at once:
// about a serving flush, so replay grows no store's merge scratch past
// what serving grows it to.
const replayChunk = 512

// skippedRating is a logged rating that failed validation: its log,
// its position there, and the refusal.
type skippedRating struct {
	log, at int
	err     error
}

// replayRatings applies the rating records of shards[i].Records[from[i]:
// to[i]] for every log i, one goroutine per destination shard, and
// skips the barriers in those ranges. Each destination takes the logs
// in index order and each log in record order, in chunks of
// replayChunk through SubmitShard, so every store comes out as one
// Submit per record in that order would leave it. It returns how many
// ratings applied and the invalid ones, in log and then record order.
func replayRatings(e *Engine, shards []RecoveredShard, from, to []int) (int, []skippedRating, error) {
	type replayed struct {
		applied int
		skipped []skippedRating
	}
	n := len(e.states)
	outs, err := parallel.Map(n, n, func(d int) (replayed, error) {
		var out replayed
		chunk := make([]rating.Rating, 0, replayChunk)
		submit := func() error {
			if err := e.SubmitShard(d, chunk); err != nil {
				return err
			}
			out.applied += len(chunk)
			chunk = chunk[:0]
			return nil
		}
		for i, sh := range shards {
			for at := from[i]; at < to[i]; at++ {
				rec := &sh.Records[at]
				if rec.Type != wal.TypeRating || ShardFor(rec.Rating.Object, n) != d {
					continue
				}
				if err := rec.Rating.Validate(); err != nil {
					// Worded as Submit refuses a lone rating.
					out.skipped = append(out.skipped, skippedRating{i, at, fmt.Errorf("shard: rating 0: %w", err)})
					continue
				}
				if chunk = append(chunk, rec.Rating); len(chunk) == replayChunk {
					if err := submit(); err != nil {
						return out, err
					}
				}
			}
		}
		if len(chunk) > 0 {
			return out, submit()
		}
		return out, nil
	})
	if err != nil {
		return 0, nil, err
	}
	applied := 0
	var skipped []skippedRating
	for _, out := range outs {
		applied += out.applied
		skipped = append(skipped, out.skipped...)
	}
	sort.Slice(skipped, func(a, b int) bool {
		if skipped[a].log != skipped[b].log {
			return skipped[a].log < skipped[b].log
		}
		return skipped[a].at < skipped[b].at
	})
	return applied, skipped, nil
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
//
// The snapshots decode, and each run of ratings between barriers
// replays, one goroutine per shard (see replayRatings); the engine,
// stats and warnings are those of applying every record in turn.
func Recover(e *Engine, shards []RecoveredShard, warnf func(format string, args ...any)) (RecoverStats, error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	var stats RecoverStats
	if len(shards) != len(e.states) {
		stats.Remapped = true
	}

	// Seed from snapshots: newest barrier wins the trust records;
	// ratings from every snapshot reroute by hash. The snapshots
	// decode one goroutine per log.
	type decoded struct {
		snap shardSnapshotHeader
		view core.StateView
	}
	snaps, err := parallel.Map(len(shards), len(shards), func(i int) (*decoded, error) {
		if shards[i].Snapshot == nil {
			return nil, nil
		}
		snap, view, err := decodeShardSnapshot(shards[i].Snapshot)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		return &decoded{snap, view}, nil
	})
	if err != nil {
		return stats, err
	}
	var (
		records   core.StateView
		haveTrust bool
		trustBase uint64
		windowEnd float64
	)
	for i, d := range snaps {
		if d == nil {
			continue
		}
		if d.snap.Shards != len(e.states) || d.snap.Shard != i {
			stats.Remapped = true
		}
		if d.snap.WindowEnd > windowEnd {
			windowEnd = d.snap.WindowEnd
		}
		if !haveTrust || d.snap.BarrierSeq > trustBase {
			haveTrust = true
			trustBase = d.snap.BarrierSeq
			records = d.view
		}
	}
	var seed core.StateView
	if haveTrust {
		seed.Records = records.Records
	}
	for _, d := range snaps {
		if d != nil {
			seed.Ratings = append(seed.Ratings, d.view.Ratings...)
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
	ends := make([]int, len(shards))
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
			end := cursors[i]
			for end < len(sh.Records) {
				if rec := &sh.Records[end]; rec.Type == wal.TypeBarrier && rec.Seq > trustBase {
					break
				}
				end++
			}
			ends[i] = end
		}
		applied, skipped, err := replayRatings(e, shards, cursors, ends)
		stats.Applied += applied
		stats.Skipped += len(skipped)
		for _, sk := range skipped {
			warnf("shard: replay log %d rating: %v", sk.log, sk.err)
		}
		if err != nil {
			return stats, err
		}
		copy(cursors, ends)

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
