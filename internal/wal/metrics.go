package wal

import (
	"repro/internal/telemetry"
)

// Metrics is the write-ahead log's telemetry surface. A nil *Metrics
// (the default) disables instrumentation entirely; individual nil
// fields are also fine, since telemetry metrics no-op when nil.
type Metrics struct {
	// AppendSeconds times each segment write (excluding the fsync,
	// which FsyncSeconds owns).
	AppendSeconds *telemetry.Histogram
	// FsyncSeconds times every fsync of the active segment, whichever
	// policy triggered it.
	FsyncSeconds *telemetry.Histogram
	// SnapshotSeconds times whole snapshot+compaction passes.
	SnapshotSeconds *telemetry.Histogram
	// AppendedRecords counts records written by AppendAllBuffered.
	AppendedRecords *telemetry.Counter
	// AppendErrors counts failed appends and commits (records the
	// caller must treat as not logged), each failing call once.
	AppendErrors *telemetry.Counter
	// Rotations counts segment rotations.
	Rotations *telemetry.Counter
	// SegmentSeq tracks the index of the segment currently appended to.
	SegmentSeq *telemetry.Gauge
	// SegmentBytes tracks the active segment's size.
	SegmentBytes *telemetry.Gauge
	// RecoveredRecords counts records read back during Open.
	RecoveredRecords *telemetry.Counter
	// TornSegments counts segments truncated during recovery.
	TornSegments *telemetry.Counter
	// ReplayedRecords counts recovered records re-applied; incremented
	// by the recovery driver (see cmd/ratingd), not by this package.
	ReplayedRecords *telemetry.Counter
}

// NewMetrics registers the WAL metric family on r. A nil registry
// yields a Metrics whose fields are all nil — still safe to use.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		AppendSeconds:    r.Histogram("wal_append_seconds", "WAL frame write latency (excluding fsync)", nil),
		FsyncSeconds:     r.Histogram("wal_fsync_seconds", "WAL segment fsync latency", nil),
		SnapshotSeconds:  r.Histogram("wal_snapshot_seconds", "WAL snapshot + compaction pass latency", nil),
		AppendedRecords:  r.Counter("wal_appended_records_total", "records acknowledged by the WAL"),
		AppendErrors:     r.Counter("wal_append_errors_total", "failed WAL appends"),
		Rotations:        r.Counter("wal_segment_rotations_total", "WAL segment rotations"),
		SegmentSeq:       r.Gauge("wal_segment_seq", "index of the segment currently appended to"),
		SegmentBytes:     r.Gauge("wal_segment_bytes", "size of the active WAL segment"),
		RecoveredRecords: r.Counter("wal_recovered_records_total", "records read back during recovery"),
		TornSegments:     r.Counter("wal_torn_segments_total", "segments truncated during recovery"),
		ReplayedRecords:  r.Counter("wal_replayed_records_total", "recovered records applied to the system"),
	}
}

// The nil-safe accessors below keep call sites in wal.go to one line
// even though the whole *Metrics may be nil.

func (m *Metrics) startAppend() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.AppendSeconds.Start()
}

func (m *Metrics) startFsync() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.FsyncSeconds.Start()
}

func (m *Metrics) startSnapshot() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.SnapshotSeconds.Start()
}

func (m *Metrics) appended(n int) {
	if m != nil {
		m.AppendedRecords.Add(uint64(n))
	}
}

func (m *Metrics) appendFailed() {
	if m != nil {
		m.AppendErrors.Inc()
	}
}

func (m *Metrics) rotated() {
	if m != nil {
		m.Rotations.Inc()
	}
}

func (m *Metrics) segment(seq int, size int64) {
	if m != nil {
		m.SegmentSeq.Set(float64(seq))
		m.SegmentBytes.Set(float64(size))
	}
}

func (m *Metrics) recovered(records, torn int) {
	if m != nil {
		m.RecoveredRecords.Add(uint64(records))
		m.TornSegments.Add(uint64(torn))
	}
}
