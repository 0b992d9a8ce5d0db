package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// serverMetrics is the HTTP facade's telemetry surface: per-endpoint
// request counts by status code, per-endpoint latency, in-flight
// requests, and idempotency-cache effectiveness.
type serverMetrics struct {
	requests *telemetry.CounterVec   // labels: route, code
	latency  *telemetry.HistogramVec // labels: route
	inflight *telemetry.Gauge

	dedupeHits   *telemetry.Counter // replayed from the idempotency cache
	dedupeMisses *telemetry.Counter // executed as the leader

	admissions *telemetry.CounterVec // labels: result (admitted|queue_full|wait_timeout|deadline)
	queueWait  *telemetry.Histogram  // seconds spent waiting for an admission slot

	streamLines    *telemetry.Counter // NDJSON lines examined
	streamRejected *telemetry.Counter // lines rejected per-line
	streamBatches  *telemetry.Counter // group-commit batches submitted
}

func newServerMetrics(r *telemetry.Registry) *serverMetrics {
	if r == nil {
		return nil
	}
	return &serverMetrics{
		requests:       r.CounterVec("http_requests_total", "HTTP requests by endpoint and status code", "route", "code"),
		latency:        r.HistogramVec("http_request_seconds", "HTTP request handling latency by endpoint", nil, "route"),
		inflight:       r.Gauge("http_inflight_requests", "requests currently being handled"),
		dedupeHits:     r.Counter("http_idempotency_hits_total", "requests answered from the idempotency cache"),
		dedupeMisses:   r.Counter("http_idempotency_misses_total", "idempotent requests that executed as leader"),
		admissions:     r.CounterVec("http_admission_total", "admission-control decisions on mutating routes", "result"),
		queueWait:      r.Histogram("http_admission_queue_seconds", "time spent queued for an admission slot", nil),
		streamLines:    r.Counter("http_stream_lines_total", "NDJSON ingest lines examined"),
		streamRejected: r.Counter("http_stream_rejected_total", "NDJSON ingest lines rejected per-line"),
		streamBatches:  r.Counter("http_stream_batches_total", "NDJSON ingest group-commit batches submitted"),
	}
}

// statusWriter records the response status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// the stream handler's per-read deadline control reaches the real
// connection through the telemetry wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe wraps one route's handler with request counting and latency
// timing. With telemetry disabled it returns the handler untouched, so
// the uninstrumented request path is byte-for-byte what it was.
func (s *Server) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics
	if m == nil {
		return h
	}
	hist := m.latency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		sp := hist.Start()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		sp.End()
		m.inflight.Add(-1)
		code := sw.status
		if code == 0 {
			// Handler wrote nothing: net/http sends 200 on return.
			code = http.StatusOK
		}
		m.requests.With(route, strconv.Itoa(code)).Inc()
	}
}

// Nil-safe dedupe-cache counters for the idempotency middleware.

func (m *serverMetrics) dedupeHit() {
	if m != nil {
		m.dedupeHits.Inc()
	}
}

func (m *serverMetrics) dedupeMiss() {
	if m != nil {
		m.dedupeMisses.Inc()
	}
}

// Nil-safe admission counters.

func (m *serverMetrics) admission(result string, waited time.Duration) {
	if m == nil {
		return
	}
	m.admissions.With(result).Inc()
	if waited > 0 {
		m.queueWait.ObserveDuration(waited)
	}
}

// Nil-safe stream-ingest counters.

func (m *serverMetrics) streamLine() {
	if m != nil {
		m.streamLines.Inc()
	}
}

func (m *serverMetrics) streamReject() {
	if m != nil {
		m.streamRejected.Inc()
	}
}

func (m *serverMetrics) streamBatch() {
	if m != nil {
		m.streamBatches.Inc()
	}
}
