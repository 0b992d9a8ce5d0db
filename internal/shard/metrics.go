package shard

import (
	"strconv"

	"repro/internal/telemetry"
)

// Metrics is the sharded engine's telemetry: per-shard ingest counters
// keyed by a "shard" label, batch-size distribution, flush outcomes,
// streaming intake and alerts. Window accounting goes to
// the engine config's core.Metrics, as a System's does. A nil *Metrics
// disables instrumentation (every method is nil-safe), matching the
// repo's other metric structs.
type Metrics struct {
	// RatingsTotal counts ratings applied per shard.
	RatingsTotal *telemetry.CounterVec
	// BatchesTotal counts router flushes per shard.
	BatchesTotal *telemetry.CounterVec
	// FlushErrorsTotal counts failed router flushes per shard.
	FlushErrorsTotal *telemetry.CounterVec
	// BatchSize observes the number of ratings per flushed batch.
	BatchSize *telemetry.HistogramVec
	// StreamPushedTotal counts ratings accepted into per-object
	// streams, per shard.
	StreamPushedTotal *telemetry.CounterVec
	// StreamLateTotal counts ratings the streaming path skipped for
	// arriving behind their object's stream clock, per shard.
	StreamLateTotal *telemetry.CounterVec
	// StreamShedTotal counts ratings shed because a shard's streaming
	// queue was full, per shard.
	StreamShedTotal *telemetry.CounterVec
	// AlertsTotal counts alerts emitted, by source.
	AlertsTotal *telemetry.CounterVec

	// labels[i] is the precomputed label value for shard i, so hot
	// paths don't re-format integers.
	labels []string
}

// NewMetrics registers the shard metric families for an engine with
// the given shard count.
func NewMetrics(r *telemetry.Registry, shards int) *Metrics {
	m := &Metrics{
		RatingsTotal:      r.CounterVec("shard_ratings_total", "ratings applied per shard", "shard"),
		BatchesTotal:      r.CounterVec("shard_batches_total", "router batch flushes per shard", "shard"),
		FlushErrorsTotal:  r.CounterVec("shard_flush_errors_total", "failed router flushes per shard", "shard"),
		BatchSize:         r.HistogramVec("shard_batch_size", "ratings per flushed batch", []float64{1, 4, 16, 64, 256, 1024}, "shard"),
		StreamPushedTotal: r.CounterVec("shard_stream_pushed_total", "ratings accepted into per-object streams", "shard"),
		StreamLateTotal:   r.CounterVec("shard_stream_late_total", "ratings skipped by the streaming path as behind the stream clock", "shard"),
		StreamShedTotal:   r.CounterVec("shard_stream_shed_total", "ratings shed by full streaming queues", "shard"),
		AlertsTotal:       r.CounterVec("shard_alerts_total", "alerts emitted", "source"),
		labels:            make([]string, shards),
	}
	for i := range m.labels {
		m.labels[i] = strconv.Itoa(i)
	}
	return m
}

func (m *Metrics) label(shard int) string {
	if shard >= 0 && shard < len(m.labels) {
		return m.labels[shard]
	}
	return strconv.Itoa(shard)
}

func (m *Metrics) ingested(shard, n int) {
	if m == nil {
		return
	}
	m.RatingsTotal.With(m.label(shard)).Add(uint64(n))
}

func (m *Metrics) flushed(shard, n int) {
	if m == nil {
		return
	}
	l := m.label(shard)
	m.BatchesTotal.With(l).Inc()
	m.BatchSize.With(l).Observe(float64(n))
}

func (m *Metrics) flushFailed(shard int) {
	if m == nil {
		return
	}
	m.FlushErrorsTotal.With(m.label(shard)).Inc()
}

func (m *Metrics) streamPushed(shard, n int) {
	if m == nil {
		return
	}
	m.StreamPushedTotal.With(m.label(shard)).Add(uint64(n))
}

func (m *Metrics) streamLate(shard int) {
	if m == nil {
		return
	}
	m.StreamLateTotal.With(m.label(shard)).Inc()
}

func (m *Metrics) streamShed(shard, n int) {
	if m == nil {
		return
	}
	m.StreamShedTotal.With(m.label(shard)).Add(uint64(n))
}

func (m *Metrics) alertEmitted(source string) {
	if m == nil {
		return
	}
	m.AlertsTotal.With(source).Inc()
}
