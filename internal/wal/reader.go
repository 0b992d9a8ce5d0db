package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path"
)

// Cursor addresses a frame boundary in the segmented log: byte offset
// Off of segment Seg. Valid cursors come from LatestSnapshot (the
// covering segment at offset 0), Tail, or a previous ReadFrom — never
// from arithmetic, because offsets are only meaningful on frame
// boundaries.
type Cursor struct {
	Seg int
	Off int64
}

// ErrSegmentGone reports that a cursor's segment has been compacted
// away (or never existed in this log's history), so the reader cannot
// resume frame-by-frame and must re-bootstrap from the latest
// snapshot. Returned wrapped; test with errors.Is.
var ErrSegmentGone = errors.New("wal: segment gone; re-bootstrap from snapshot")

// ReadFrom decodes verified frames starting at cur and returns them
// with the cursor just past the last returned frame. It is the
// replication tail reader: safe to call concurrently with appends,
// and it never returns bytes that haven't passed the CRC.
//
// Batching contract: TypeBarrier records are returned
// alone (a batch of exactly one), so a follower can apply every
// rating before a window and never a rating past one. Plain rating
// batches are capped at maxRecords (<= 0 means no cap).
//
// Tail contract: a torn or corrupt frame in the live segment is an
// append in flight (or a failed append about to be sealed and rotated
// past) — ReadFrom stops before it and returns cleanly, so a poller
// blocks at the tear rather than emitting garbage, and resumes once
// the next successful append lands. In a sealed segment a tear is
// permanent and terminal (the append discipline damages only segment
// ends), so the reader skips to the next segment.
//
// A cursor whose segment was compacted away — or that is ahead of the
// live segment, i.e. from some other log's history — fails with
// ErrSegmentGone.
func (l *Log) ReadFrom(cur Cursor, maxRecords int) ([]Record, Cursor, error) {
	if maxRecords <= 0 {
		maxRecords = 1 << 30
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, cur, ErrClosed
	}
	liveSeq := l.seq
	fsys, dir := l.opts.FS, l.opts.Dir
	l.mu.Unlock()

	if cur.Seg > liveSeq || cur.Off < 0 {
		return nil, cur, fmt.Errorf("%w (cursor %d/%d vs live segment %d)", ErrSegmentGone, cur.Seg, cur.Off, liveSeq)
	}
	var out []Record
	for {
		// Only the bytes past the cursor are read: an idle poll at the
		// live tail reads none.
		data, size, err := readFile(fsys, path.Join(dir, segmentName(cur.Seg)), cur.Off)
		if err != nil {
			if os.IsNotExist(err) && cur.Seg < liveSeq {
				return out, cur, fmt.Errorf("%w (segment %d compacted)", ErrSegmentGone, cur.Seg)
			}
			return out, cur, err
		}
		if cur.Off > size {
			if cur.Seg < liveSeq {
				// A verified cursor can't point past a sealed segment's
				// end; this log's history diverged from the cursor's.
				return out, cur, fmt.Errorf("%w (cursor %d/%d past sealed end %d)", ErrSegmentGone, cur.Seg, cur.Off, size)
			}
			// A failed append is being truncated back; retry later.
			return out, cur, nil
		}
		base := cur.Off // data[0] is the byte at base
		for cur.Off < base+int64(len(data)) && len(out) < maxRecords {
			rec, next, perr := parseFrame(data, int(cur.Off-base))
			if perr != nil {
				if cur.Seg >= liveSeq {
					return out, cur, nil // live tail tear: block before it
				}
				break // sealed tear: terminal; the rest is garbage
			}
			if rec.Type == TypeBarrier {
				if len(out) > 0 {
					return out, cur, nil // the window starts its own batch
				}
				return []Record{rec}, Cursor{Seg: cur.Seg, Off: base + int64(next)}, nil
			}
			out = append(out, rec)
			cur.Off = base + int64(next)
		}
		if len(out) >= maxRecords {
			return out, cur, nil
		}
		if cur.Seg >= liveSeq {
			return out, cur, nil
		}
		// Sealed segment fully consumed (or torn past recovery): roll
		// into the next one.
		cur = Cursor{Seg: cur.Seg + 1}
	}
}

// parseFrame decodes the single frame at data[off:] and returns the
// record plus the offset just past it. The error describes a torn or
// corrupt frame, with the offset unchanged.
func parseFrame(data []byte, off int) (Record, int, error) {
	if len(data)-off < frameHeader {
		return Record{}, off, fmt.Errorf("torn frame header (%d trailing bytes)", len(data)-off)
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxPayload {
		return Record{}, off, fmt.Errorf("implausible frame length %d", n)
	}
	if len(data)-off-frameHeader < n {
		return Record{}, off, fmt.Errorf("torn frame payload (want %d, have %d)", n, len(data)-off-frameHeader)
	}
	payload := data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, off, errors.New("frame checksum mismatch")
	}
	rec, derr := decodeRecord(payload)
	if derr != nil {
		return Record{}, off, derr
	}
	return rec, off + frameHeader + n, nil
}
