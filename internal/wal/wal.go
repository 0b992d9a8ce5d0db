// Package wal is the write-ahead log that makes ratingd crash-safe.
// Every accepted mutation — a rating submission or a maintenance
// window — is framed, checksummed and appended to a segmented
// append-only log before it is applied in memory; recovery loads the
// latest snapshot and replays the log tail, so the daemon's state is
// a pure function of what the log acknowledged.
//
// On-disk layout (one directory):
//
//	wal-00000042.log    segment 42: length-prefixed CRC32C frames
//	snap-00000043.json  snapshot covering every segment < 43
//
// Frame format, little-endian:
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// The payload is a one-byte record type followed by fixed-width
// fields. Frames are written with a single Write call, so a crash can
// only tear the final frame of a segment; recovery truncates the tear
// and continues (never refusing to start). After a failed append the
// log seals the damaged segment and rotates, preserving the invariant
// that any segment is torn only at its very end.
//
// The fsync policy is configurable: SyncAlways fsyncs every append
// (durable on acknowledge), SyncInterval leaves fsync to a caller-run
// ticker calling Sync, SyncNever leaves durability to the OS.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/rating"
)

// RecordType discriminates log records.
type RecordType uint8

// Type 2 was the single-log maintenance window of the pre-sharding
// layout. It is retired and decodes as an unknown record type; do not
// reuse it.
const (
	// TypeRating is one accepted rating.
	TypeRating RecordType = 1
	// TypeBarrier is a maintenance window [Start, End) broadcast to
	// every shard log. The sequence number is the cross-log alignment
	// point: recovery merges per-shard tails by pairing barriers with
	// equal Seq, so a crash mid-broadcast (a barrier present in some
	// logs but not others) is detectable.
	TypeBarrier RecordType = 3
)

// Record is one logical log entry.
type Record struct {
	Type       RecordType
	Rating     rating.Rating // valid when Type == TypeRating
	Start, End float64       // valid when Type == TypeBarrier
	Seq        uint64        // valid when Type == TypeBarrier
}

// RatingRecord wraps a rating as a log record.
func RatingRecord(r rating.Rating) Record {
	return Record{Type: TypeRating, Rating: r}
}

// BarrierRecord wraps a maintenance window as a shard-log barrier with
// its cross-log sequence number.
func BarrierRecord(seq uint64, start, end float64) Record {
	return Record{Type: TypeBarrier, Seq: seq, Start: start, End: end}
}

// SyncPolicy selects when appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs inside every Append and Commit: a nil return
	// means the records are on stable storage.
	SyncAlways SyncPolicy = iota
	// SyncInterval never fsyncs inside Append or Commit; the owner
	// calls Sync on its own schedule and bounds the loss window by it.
	SyncInterval
	// SyncNever never fsyncs; crashes lose whatever the OS had not
	// written back. Useful for benchmarks and tests.
	SyncNever
)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// FS is the filesystem seam; nil means the real filesystem.
	FS faultinject.FS
	// Policy selects the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// SegmentBytes rotates segments once they reach this size.
	// Zero means 4 MiB.
	SegmentBytes int64
	// Warnf receives recovery and degradation warnings; nil discards.
	Warnf func(format string, args ...any)
	// Metrics receives telemetry (latency histograms, counters,
	// segment gauges); nil disables instrumentation.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultinject.OS()
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Warnf == nil {
		o.Warnf = func(string, ...any) {}
	}
	return o
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Snapshot is the latest durable snapshot's bytes, nil if none.
	Snapshot []byte
	// Records is the log tail to replay on top of the snapshot.
	Records []Record
	// Torn reports that at least one torn or corrupt frame was
	// truncated away during recovery.
	Torn bool
	// TornFiles lists the segments that were truncated.
	TornFiles []string
	// Segments is how many segment files were replayed.
	Segments int
}

// Log is an open write-ahead log. Its methods are safe for concurrent
// use, but callers coordinating the log with in-memory state (append
// then apply) need their own mutex around the pair.
type Log struct {
	opts Options

	mu         sync.Mutex
	seq        int // current segment index
	cur        faultinject.File
	curSize    int64
	syncedSize int64 // current segment's size as of its last good sync
	dirty      bool  // bytes written since the last successful sync
	sealed     bool  // current segment had a failed append or undo; rotate before reuse
	closed     bool
	stuck      error // a failed sync could not be undone; rotate and Close refuse
	buf        []byte
	writeGen   uint64 // generation of the latest buffered append (under mu)
	unsynced   uint64 // records written since the last good sync

	// undone[k] is syncedGen when undo k (from 0) ran, see undoLocked:
	// of the generations written since the undo before it, exactly
	// those above it were refused.
	undone []uint64

	// Group-commit state for AppendAllBuffered/Commit. syncMu elects
	// one fsync leader at a time; syncedGen is the highest write
	// generation known durable (so followers whose generation a
	// leader's fsync already covered return without touching the
	// file); undos mirrors len(undone) for Commit's lock-free fast
	// path.
	syncMu    sync.Mutex
	syncedGen atomic.Uint64
	undos     atomic.Int64

	// appended counts records written by this process (recovery replay
	// and undone records excluded). Snapshot footers record it as the follower lag
	// baseline, so it is only comparable within one log lifetime.
	appended atomic.Uint64
}

const (
	frameHeader   = 8
	maxPayload    = 1 << 16 // sanity bound; real payloads are ≤ 33 bytes
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
	snapPrefix    = "snap-"
	snapSuffix    = ".json"
	tmpSuffix     = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(seq int) string { return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix) }
func snapName(seq int) string    { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

func parseSeq(name, prefix, suffix string) (int, bool) {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	seq := 0
	for _, c := range name[len(prefix) : len(prefix)+8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// Open recovers the log in opts.Dir and returns it ready for appends,
// along with what it recovered. Open never fails on torn or corrupt
// frames — it truncates them with a warning; it fails only on I/O
// errors that make the directory unusable.
func Open(opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}
	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: readdir %s: %w", opts.Dir, err)
	}

	var segSeqs, snapSeqs []int
	for _, name := range names {
		if seq, ok := parseSeq(name, segmentPrefix, segmentSuffix); ok {
			segSeqs = append(segSeqs, seq)
			continue
		}
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
			continue
		}
		// Leftover temp files from a crashed snapshot write are dead.
		if len(name) > len(tmpSuffix) && name[len(name)-len(tmpSuffix):] == tmpSuffix {
			opts.Warnf("wal: removing orphan temp file %s", name)
			_ = fsys.Remove(path.Join(opts.Dir, name))
		}
	}
	slices.Sort(segSeqs)
	slices.Sort(snapSeqs)

	rec := &Recovery{}

	// Latest readable snapshot wins; unreadable ones fall back.
	snapSeq := 0
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		data, _, err := readFile(fsys, path.Join(opts.Dir, snapName(snapSeqs[i])), 0)
		if err != nil || len(data) == 0 {
			// An empty snapshot is the signature of a rename whose
			// content never reached disk; treat it like a read error.
			opts.Warnf("wal: snapshot %s unreadable (%v, %d bytes); falling back",
				snapName(snapSeqs[i]), err, len(data))
			continue
		}
		content, _, _, ferr := SplitSnapshotFooter(data)
		if ferr != nil || len(content) == 0 {
			// A corrupt footer means the content can't be trusted either
			// — the CRC binds them together. Fall back like a torn write.
			opts.Warnf("wal: snapshot %s failed verification (%v); falling back",
				snapName(snapSeqs[i]), ferr)
			continue
		}
		rec.Snapshot = content
		snapSeq = snapSeqs[i]
		break
	}
	// Older snapshots are superseded; covered segments are dead.
	for _, s := range snapSeqs {
		if s < snapSeq {
			_ = fsys.Remove(path.Join(opts.Dir, snapName(s)))
		}
	}

	lastSize := int64(-1)
	lastSeq := snapSeq - 1 // so an empty dir starts at segment snapSeq
	for _, seq := range segSeqs {
		name := segmentName(seq)
		full := path.Join(opts.Dir, name)
		if seq < snapSeq {
			opts.Warnf("wal: removing segment %s covered by snapshot %d", name, snapSeq)
			_ = fsys.Remove(full)
			continue
		}
		data, _, err := readFile(fsys, full, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		recs, good, perr := parseFrames(data)
		if rec.Records == nil {
			rec.Records = recs // the usual lone segment: no copy
		} else {
			rec.Records = append(rec.Records, recs...)
		}
		rec.Segments++
		lastSeq, lastSize = seq, int64(len(data))
		if perr != nil {
			// Torn tail: truncate to the last good frame and go on.
			// Append discipline guarantees damage only at segment end,
			// so later segments are still replayable.
			opts.Warnf("wal: %s: %v at offset %d of %d; truncating and continuing",
				name, perr, good, len(data))
			rec.Torn = true
			rec.TornFiles = append(rec.TornFiles, name)
			if err := truncateFile(fsys, full, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn %s: %w", name, err)
			}
			lastSize = int64(good)
		}
	}
	_ = fsys.SyncDir(opts.Dir)

	opts.Metrics.recovered(len(rec.Records), len(rec.TornFiles))

	l := &Log{opts: opts, seq: lastSeq, curSize: lastSize}
	// Append into the last segment if it exists and has room,
	// otherwise start a fresh one.
	if lastSize < 0 || lastSize >= opts.SegmentBytes {
		l.seq++
		l.curSize = 0
	}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// readFile reads name from byte off to its end into one buffer sized
// from Stat, as os.ReadFile sizes it, and returns the bytes with the
// file's size. Bytes appended after the Stat are left for the next
// read; a file truncated meanwhile reads short.
func readFile(fsys faultinject.FS, name string, off int64) ([]byte, int64, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	data := make([]byte, max(fi.Size()-off, 0))
	n, err := f.ReadAt(data, off)
	if err != nil && err != io.EOF {
		return nil, 0, err
	}
	return data[:n], fi.Size(), nil
}

func truncateFile(fsys faultinject.FS, name string, size int64) error {
	f, err := fsys.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openSegment opens (creating if needed) the current segment for
// appending and makes its directory entry durable.
func (l *Log) openSegment() error {
	name := path.Join(l.opts.Dir, segmentName(l.seq))
	f, err := l.opts.FS.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", l.seq, err)
	}
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir for segment %d: %w", l.seq, err)
	}
	l.cur = f
	l.syncedSize = l.curSize
	l.sealed = false
	l.dirty = false
	l.opts.Metrics.segment(l.seq, l.curSize)
	return nil
}

// rotate seals the current segment and opens the next one. A tail
// whose sync failed rotates only once undone: an acknowledged tail
// (not SyncAlways) or a stuck log's stays, and rotate refuses.
func (l *Log) rotate() error {
	if l.cur != nil {
		if err := l.syncLocked(); err != nil {
			if l.dirty {
				return err
			}
			l.opts.Warnf("wal: sync on rotate: %v", err)
		}
		_ = l.cur.Close()
		l.cur = nil
	}
	l.seq++
	l.curSize = 0
	l.opts.Metrics.rotated()
	return l.openSegment()
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// errUndone is Commit's answer for records a failed sync undid.
var errUndone = errors.New("wal: commit: records undone after a failed sync")

// Append writes rec and commits it. Under SyncAlways, a nil return
// means the record is durable. On error the record must be treated as
// not logged; the log itself remains usable (the damaged segment is
// sealed and the next append rotates past it) unless it is stuck (see
// undoLocked).
func (l *Log) Append(rec Record) error {
	t, err := l.AppendAllBuffered([]Record{rec})
	if err != nil {
		return err
	}
	return l.Commit(t)
}

// SyncToken identifies a buffered append for Commit. The zero token
// commits trivially.
type SyncToken struct {
	gen   uint64
	undos int // len(undone) when the append was written
}

// AppendAllBuffered frames every record and writes them in a single
// Write, so the batch is all-or-nothing: on error none of the records
// may be treated as logged. It never fsyncs — even under SyncAlways —
// and instead returns a token for Commit. Splitting the write from
// the sync is what enables group commit: several batches can be
// written back to back and made durable by one fsync, whoever's
// Commit runs first acting as the leader for all of them.
func (l *Log) AppendAllBuffered(recs []Record) (SyncToken, error) {
	if len(recs) == 0 {
		return SyncToken{}, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return SyncToken{}, ErrClosed
	}
	if l.cur == nil || l.sealed || l.curSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.opts.Metrics.appendFailed()
			return SyncToken{}, err
		}
	}
	l.buf = l.buf[:0]
	for _, rec := range recs {
		l.buf = appendFrame(l.buf, rec)
	}
	sp := l.opts.Metrics.startAppend()
	n, err := l.cur.Write(l.buf)
	l.curSize += int64(n)
	if err != nil {
		// The segment may now end in a torn frame. Trim it back if we
		// can; either way, seal it so no frame is ever written after
		// damage — recovery relies on tears being terminal.
		want := l.curSize - int64(n)
		if terr := l.cur.Truncate(want); terr == nil {
			l.curSize = want
		} else {
			l.sealed = true
		}
		l.opts.Metrics.appendFailed()
		return SyncToken{}, fmt.Errorf("wal: append: %w", err)
	}
	sp.End()
	l.dirty = true
	l.writeGen++
	l.unsynced += uint64(len(recs))
	l.appended.Add(uint64(len(recs)))
	l.opts.Metrics.segment(l.seq, l.curSize)
	l.opts.Metrics.appended(len(recs))
	return SyncToken{gen: l.writeGen, undos: len(l.undone)}, nil
}

// Commit makes a buffered append durable under SyncAlways: a nil
// return means the token's records are on stable storage, and an
// error means they never will be (see undoLocked). Under SyncInterval
// and SyncNever it is a no-op, preserving those policies' loss
// windows. Concurrent commits elect one fsync leader; the leader's
// single fsync covers every write that preceded it, and the followers
// observe that and return without touching the file. Every failure
// but ErrClosed counts as a failed append.
func (l *Log) Commit(t SyncToken) (err error) {
	if t.gen == 0 || l.opts.Policy != SyncAlways {
		return nil
	}
	defer func() {
		if err != nil && !errors.Is(err, ErrClosed) {
			l.opts.Metrics.appendFailed()
		}
	}()
	// Fast path: a leader's fsync already covered this generation and
	// no undo has run since it was written. syncedGen is read first:
	// an undo is counted before any later sync can advance it.
	if l.syncedGen.Load() >= t.gen && l.undos.Load() == int64(t.undos) {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.undone) > t.undos {
		// The first undo after the append decided it for good.
		if t.gen <= l.undone[t.undos] {
			return nil
		}
		return errUndone
	}
	if l.syncedGen.Load() >= t.gen {
		return nil
	}
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Sync fsyncs any unsynced appends. On failure, under SyncAlways they
// are undone (see undoLocked); under the other policies they were
// acknowledged already and stay for the next Sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.stuck != nil {
		return l.stuck
	}
	if !l.dirty || l.cur == nil {
		return nil
	}
	sp := l.opts.Metrics.startFsync()
	if err := l.cur.Sync(); err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
		if l.opts.Policy != SyncAlways {
			return err // acknowledged already: the next sync retries
		}
		return l.undoLocked(err)
	}
	sp.End()
	l.dirty = false
	l.syncedSize = l.curSize
	l.syncedGen.Store(l.writeGen)
	l.unsynced = 0
	return nil
}

// undoLocked answers a failed SyncAlways sync: it truncates the
// segment back to what the last good sync covered, syncs and seals it,
// so no later sync makes the refused tail durable and no later frame
// reuses its offsets (a reader past them gets ErrSegmentGone). Exactly
// the generations written since that sync are refused and leave
// AppendedRecords; earlier ones keep committing nil. If the truncate or
// its sync fails too, the refused bytes may reach the disk, so the log
// is stuck: every later append, commit, sync and Close fails.
func (l *Log) undoLocked(err error) error {
	l.undone = append(l.undone, l.syncedGen.Load())
	l.undos.Store(int64(len(l.undone)))
	l.sealed = true
	uerr := l.cur.Truncate(l.syncedSize)
	if uerr == nil {
		uerr = l.cur.Sync()
	}
	if uerr != nil {
		l.stuck = fmt.Errorf("wal: stuck until restart: undo of failed sync: %w", uerr)
		return err
	}
	l.appended.Add(-l.unsynced)
	l.curSize, l.dirty, l.unsynced = l.syncedSize, false, 0
	l.opts.Metrics.segment(l.seq, l.curSize)
	return err
}

// Snapshot makes the state written by write the log's new baseline:
// it seals the current segment, writes the snapshot atomically (temp
// file, fsync, rename, dir fsync), then drops every segment and older
// snapshot the new one covers. The caller must guarantee that the
// state write reflects exactly the records appended so far — i.e.
// hold whatever lock orders appends against state mutations.
//
// On error the log stays usable and the previous snapshot (if any)
// remains the recovery baseline.
func (l *Log) Snapshot(write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	sp := l.opts.Metrics.startSnapshot()
	defer sp.End()
	// Seal the tail so the snapshot covers segments < cover and the
	// next append lands in segment `cover`.
	if err := l.rotate(); err != nil {
		return err
	}
	cover := l.seq
	fsys := l.opts.FS

	final := path.Join(l.opts.Dir, snapName(cover))
	tmp := final + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	cw := &crcCountWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	ft := makeSnapshotFooter(uint64(cw.n), l.appended.Load(), cw.crc)
	if _, err := f.Write(ft[:]); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot footer: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := fsys.SyncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("wal: snapshot dir sync: %w", err)
	}

	// Compaction: everything the snapshot covers is garbage. Failures
	// here cost only disk space; recovery ignores covered files.
	names, err := fsys.ReadDir(l.opts.Dir)
	if err != nil {
		l.opts.Warnf("wal: compact readdir: %v", err)
		return nil
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, segmentPrefix, segmentSuffix); ok && seq < cover {
			if err := fsys.Remove(path.Join(l.opts.Dir, name)); err != nil {
				l.opts.Warnf("wal: compact %s: %v", name, err)
			}
			continue
		}
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && seq < cover {
			if err := fsys.Remove(path.Join(l.opts.Dir, name)); err != nil {
				l.opts.Warnf("wal: compact %s: %v", name, err)
			}
		}
	}
	if err := fsys.SyncDir(l.opts.Dir); err != nil {
		l.opts.Warnf("wal: compact dir sync: %v", err)
	}
	return nil
}

// Close syncs and closes the log; a stuck log skips the sync, which
// could make its refused tail durable, and reports why it is stuck.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.stuck
	if l.cur != nil {
		if l.dirty && err == nil {
			err = l.cur.Sync()
		}
		if cerr := l.cur.Close(); err == nil {
			err = cerr
		}
		l.cur = nil
	}
	return err
}

// SegmentSeq returns the index of the segment currently appended to.
func (l *Log) SegmentSeq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// AppendedRecords returns the count of records appended by this
// process (recovery replay and undone records excluded). Together with a snapshot
// footer's Records baseline it measures replication lag; the counts
// are only comparable within one log lifetime.
func (l *Log) AppendedRecords() uint64 { return l.appended.Load() }

// Tail returns the cursor one past the last written frame — where the
// next append will land.
func (l *Log) Tail() Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Cursor{Seg: l.seq, Off: l.curSize}
}

// LatestSnapshot returns the newest snapshot file's raw bytes —
// footer included, so a remote reader can verify them with
// SplitSnapshotFooter — along with the cursor where the log tail past
// it begins and the verified footer. Snapshots without a footer are
// refused: a replication bootstrap takes a fresh Snapshot first, so
// it always reads one this process wrote.
func (l *Log) LatestSnapshot() ([]byte, Cursor, SnapshotFooter, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, Cursor{}, SnapshotFooter{}, ErrClosed
	}
	fsys, dir := l.opts.FS, l.opts.Dir
	l.mu.Unlock()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, Cursor{}, SnapshotFooter{}, fmt.Errorf("wal: latest snapshot: %w", err)
	}
	best := -1
	for _, name := range names {
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && seq > best {
			best = seq
		}
	}
	if best < 0 {
		return nil, Cursor{}, SnapshotFooter{}, errors.New("wal: no snapshot")
	}
	data, _, err := readFile(fsys, path.Join(dir, snapName(best)), 0)
	if err != nil {
		return nil, Cursor{}, SnapshotFooter{}, fmt.Errorf("wal: latest snapshot: %w", err)
	}
	_, ft, present, err := SplitSnapshotFooter(data)
	if err != nil {
		return nil, Cursor{}, SnapshotFooter{}, err
	}
	if !present {
		return nil, Cursor{}, SnapshotFooter{}, errors.New("wal: snapshot has no verification footer")
	}
	return data, Cursor{Seg: best}, ft, nil
}

// appendFrame appends rec's wire frame to buf.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = append(buf, byte(rec.Type))
	switch rec.Type {
	case TypeRating:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(rec.Rating.Rater)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(rec.Rating.Object)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Rating.Value))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Rating.Time))
	case TypeBarrier:
		buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Start))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.End))
	default:
		panic(fmt.Sprintf("wal: unknown record type %d", rec.Type))
	}
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// parseFrames decodes data's frames. It returns the decoded records,
// the offset just past the last intact frame, and a non-nil error
// describing the first torn or corrupt frame (nil when data parses
// cleanly to its end). The records are allocated once, sized by a
// first pass that only steps over the frames' length prefixes, up to
// the first implausible one (a zero-filled tail counts no frames).
func parseFrames(data []byte) (recs []Record, good int, err error) {
	frames := 0
	for off := 0; len(data)-off >= frameHeader; frames++ {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxPayload {
			break
		}
		off += frameHeader + n
	}
	if frames > 0 {
		recs = make([]Record, 0, frames)
	}
	off := 0
	for off < len(data) {
		rec, next, perr := parseFrame(data, off)
		if perr != nil {
			return recs, off, perr
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errors.New("empty record")
	}
	switch RecordType(payload[0]) {
	case TypeRating:
		if len(payload) != 1+4*8 {
			return Record{}, fmt.Errorf("rating record length %d", len(payload))
		}
		return Record{
			Type: TypeRating,
			Rating: rating.Rating{
				Rater:  rating.RaterID(int64(binary.LittleEndian.Uint64(payload[1:]))),
				Object: rating.ObjectID(int64(binary.LittleEndian.Uint64(payload[9:]))),
				Value:  math.Float64frombits(binary.LittleEndian.Uint64(payload[17:])),
				Time:   math.Float64frombits(binary.LittleEndian.Uint64(payload[25:])),
			},
		}, nil
	case TypeBarrier:
		if len(payload) != 1+3*8 {
			return Record{}, fmt.Errorf("barrier record length %d", len(payload))
		}
		return Record{
			Type:  TypeBarrier,
			Seq:   binary.LittleEndian.Uint64(payload[1:]),
			Start: math.Float64frombits(binary.LittleEndian.Uint64(payload[9:])),
			End:   math.Float64frombits(binary.LittleEndian.Uint64(payload[17:])),
		}, nil
	default:
		return Record{}, fmt.Errorf("unknown record type %d", payload[0])
	}
}
