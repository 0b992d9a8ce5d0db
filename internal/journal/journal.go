// Package journal is ratingd's write-ahead journal: one WAL per shard
// in front of a shard.Engine, and the MANIFEST/epoch directory layout
// those logs live in. Every mutation is appended to its shard's log
// before it is applied, which is what lets recovery rebuild the
// engine — trust records included, which are never logged themselves
// — by replaying the logs.
package journal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/wal"
)

// errJournalWedged is returned once a barrier broadcast partially
// failed: some shard logs hold a window the others don't, and any
// further append would turn recoverable crash damage into a
// mid-stream inconsistency that recovery refuses to replay.
var errJournalWedged = errors.New("shard journal wedged after partial barrier broadcast; restart to recover")

// Config configures Open and Promote.
type Config struct {
	// Dir is the journal directory (ratingd's -wal); empty opens no
	// logs, so writes are applied without being logged.
	Dir string
	// WAL configures every shard log; each log's Dir is set from the
	// layout. Its Warnf also receives the layout's and recovery's
	// warnings.
	WAL wal.Options
	// BatchSize and BatchInterval configure the batching router (see
	// shard.RouterConfig).
	BatchSize     int
	BatchInterval time.Duration
	// Metrics receives the router's per-shard flush telemetry; nil
	// disables it.
	Metrics *shard.Metrics
}

// Journal implements server.Journal over one write-ahead log per
// shard. Ratings fan out through the batching router and land in the
// log of the shard that owns their object; maintenance windows are
// broadcast to every log as sequence-numbered barrier records, which
// is what lets recovery realign the independent per-shard histories
// into one global order.
//
// Locking makes [append to the log + apply to the engine] atomic with
// respect to snapshot capture, so a snapshot never reflects a record
// its log doesn't cover (or vice versa) — the invariant that makes
// snapshot + tail replay reconstruct the exact pre-crash state. Rating
// flushes hold the read lock, so different shards append and apply in
// parallel; barriers, restores and snapshots hold the write lock, so
// they observe no half-applied batch.
type Journal struct {
	mu     sync.RWMutex
	engine *shard.Engine
	router *shard.Router
	logs   []*wal.Log // nil when the WAL is disabled
	seq    uint64     // next barrier sequence number
	epoch  int        // manifest epoch the logs belong to
	broken bool

	// recs[i] is shard i's reusable WAL record buffer. Shard i's flush
	// runs only on its router worker goroutine, so the buffer is
	// single-writer and the steady-state log path allocates nothing.
	recs [][]wal.Record
}

// newJournal fronts engine with a journal over logs and its batching
// router; it owns the logs from here on. The router runs even without
// a WAL: batching is what amortizes per-submission store merges across
// shards.
func newJournal(engine *shard.Engine, cfg Config, logs []*wal.Log, epoch int, seq uint64) (*Journal, error) {
	j := &Journal{
		engine: engine,
		logs:   logs,
		seq:    seq,
		epoch:  epoch,
		recs:   make([][]wal.Record, engine.Shards()),
	}
	router, err := shard.NewRouter(shard.RouterConfig{
		Shards:    engine.Shards(),
		BatchSize: cfg.BatchSize,
		Interval:  cfg.BatchInterval,
		Flush:     j.flush,
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		closeLogSet(logs)
		return nil, err
	}
	j.router = router
	return j, nil
}

// flush is the router's FlushFunc: append one shard's coalesced batch
// to that shard's log, then apply it to the engine. Runs on the
// shard's worker goroutine, so distinct shards log and apply
// concurrently under the shared read lock. The append is buffered and
// made durable by an explicit group commit: the write and the fsync
// are split so one leader fsync can cover every batch written before
// it (wal.Commit), collapsing the per-batch fsync tax when flushes
// pile up behind a slow disk.
func (j *Journal) flush(i int, rs []rating.Rating) error {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if j.broken {
		return errJournalWedged
	}
	if j.logs != nil {
		recs := j.recs[i][:0]
		for _, r := range rs {
			recs = append(recs, wal.RatingRecord(r))
		}
		j.recs[i] = recs
		token, err := j.logs[i].AppendAllBuffered(recs)
		if err != nil {
			return err
		}
		if err := j.logs[i].Commit(token); err != nil {
			return err
		}
	}
	return j.engine.SubmitShard(i, rs)
}

// SubmitAll routes the batch through the router, blocking until every
// shard's flush has logged and applied its slice.
func (j *Journal) SubmitAll(rs []rating.Rating) error {
	return j.router.Submit(rs)
}

// SubmitAsync implements server.AsyncSubmitter: the streaming ingest
// endpoint enqueues a batch and keeps decoding while the router's
// group commit logs and applies it. The returned wait reports the
// flush outcome; the caller's slice is copied before return.
func (j *Journal) SubmitAsync(rs []rating.Rating) (func() error, error) {
	return j.router.SubmitAsync(rs)
}

// ProcessWindow broadcasts the window's barrier to every shard log,
// then runs it. A failure before any log accepted the barrier is a
// clean refusal; a failure after the first acceptance wedges the
// journal — the histories have diverged and only a restart (which
// drops the torn trailing barrier) can reconcile them.
func (j *Journal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return core.ProcessReport{}, errJournalWedged
	}
	if j.logs != nil {
		rec := wal.BarrierRecord(j.seq, start, end)
		for i, l := range j.logs {
			if err := l.Append(rec); err != nil {
				if i > 0 {
					j.broken = true
					return core.ProcessReport{}, fmt.Errorf(
						"barrier %d reached %d/%d shard logs: %w", j.seq, i, len(j.logs), err)
				}
				return core.ProcessReport{}, err
			}
		}
	}
	j.seq++
	return j.engine.ProcessWindow(start, end)
}

// NextBarrierSeq reports the sequence number the next maintenance
// barrier will carry; the replication primary (repl.Journal) serves
// NextBarrierSeq()-1 as its barrier height.
func (j *Journal) NextBarrierSeq() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.seq
}

// Epoch is the manifest epoch the logs belong to.
func (j *Journal) Epoch() int { return j.epoch }

// Logs are the per-shard logs, indexed by shard; nil without a Dir.
func (j *Journal) Logs() []*wal.Log { return j.logs }

// Restore replaces the engine state and rebases every shard log on a
// snapshot of it, so stale segments can't replay over the restored
// state after a crash.
func (j *Journal) Restore(r io.Reader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return errJournalWedged
	}
	if err := j.engine.LoadSnapshot(r); err != nil {
		return err
	}
	if err := j.snapshotLocked(); err != nil {
		return fmt.Errorf("rebase shard logs after restore: %w", err)
	}
	return nil
}

// Snapshot captures the current per-shard state as each log's new
// baseline and compacts covered segments. The write lock keeps every
// shard's snapshot at the same barrier height.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() error {
	return rebaseLogs(j.logs, j.engine, j.seq-1) // at the last applied window
}

// Sync flushes every shard log's buffered frames to disk; used by the
// background fsync loop under -fsync interval.
func (j *Journal) Sync() error {
	for i, l := range j.logs {
		if err := l.Sync(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close drains the router into the logs and engine, rebases every log
// on the final state and closes the logs: the graceful shutdown.
func (j *Journal) Close() error {
	var errs []error
	if err := j.router.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close router: %w", err))
	}
	if err := j.Snapshot(); err != nil {
		errs = append(errs, fmt.Errorf("final wal snapshot: %w", err))
	}
	for i, l := range j.logs {
		if err := l.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
			errs = append(errs, fmt.Errorf("close shard %d wal: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Abort stops the router and closes the logs without a final
// snapshot, leaving the logs as a crash would.
func (j *Journal) Abort() {
	_ = j.router.Close() // a failed flush was already refused to its submitter
	closeLogSet(j.logs)
}
