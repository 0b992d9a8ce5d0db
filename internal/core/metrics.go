package core

import (
	"repro/internal/telemetry"
)

// Stage names used by the maintenance-pipeline spans, mirroring the
// paper's Procedure 1 + Procedure 2 structure.
const (
	// StageFilter is feature extraction I: the rating filter's pass
	// over one object's window.
	StageFilter = "filter"
	// StageARFit is feature extraction II: Procedure 1's windowed AR
	// fits and model-error scan for one object.
	StageARFit = "ar_fit"
	// StageCharge folds filter and detector evidence into per-rater
	// Procedure 2 observations.
	StageCharge = "charge"
	// StageTrustUpdate applies the observations to the trust manager.
	StageTrustUpdate = "trust_update"
)

// Metrics is the detection pipeline's telemetry surface. A nil
// *Metrics (the default Config) disables instrumentation.
type Metrics struct {
	// Pipeline times the named stages above; per-object stages
	// (filter, ar_fit) are observed once per object, the others once
	// per maintenance window.
	Pipeline *telemetry.Pipeline
	// WindowSeconds times whole ProcessWindow calls.
	WindowSeconds *telemetry.Histogram
	// WindowObjects observes how many objects each window touched.
	WindowObjects *telemetry.Histogram
	// RatingsConsidered counts ratings that fell inside a processed
	// window (pre-filter).
	RatingsConsidered *telemetry.Counter
	// RatingsFiltered counts ratings the filter rejected.
	RatingsFiltered *telemetry.Counter
	// SuspiciousWindows counts detector windows flagged suspicious.
	SuspiciousWindows *telemetry.Counter
	// DegradedObjects counts objects whose detector pass failed and
	// fell back to filter-only evidence.
	DegradedObjects *telemetry.Counter
	// WindowsProcessed counts completed maintenance windows.
	WindowsProcessed *telemetry.Counter
}

// NewMetrics registers the pipeline metric family on r (nil r gives a
// Metrics of nil fields, which is still safe to install).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Pipeline:          telemetry.NewPipeline(r, "pipeline_stage_seconds", "detector pipeline stage latency"),
		WindowSeconds:     r.Histogram("pipeline_window_seconds", "ProcessWindow wall time", nil),
		WindowObjects:     r.Histogram("pipeline_window_objects", "objects per maintenance window", []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}),
		RatingsConsidered: r.Counter("pipeline_ratings_considered_total", "ratings inside processed windows"),
		RatingsFiltered:   r.Counter("pipeline_ratings_filtered_total", "ratings rejected by the filter"),
		SuspiciousWindows: r.Counter("pipeline_suspicious_windows_total", "detector windows flagged suspicious"),
		DegradedObjects:   r.Counter("pipeline_degraded_objects_total", "objects degraded to filter-only evidence"),
		WindowsProcessed:  r.Counter("pipeline_windows_total", "completed maintenance windows"),
	}
}

// Nil-safe accessors: the System and the sharded engine call these
// unconditionally; with a nil *Metrics each is one branch and no clock
// read.

// Stage starts a span for the named pipeline stage.
func (m *Metrics) Stage(name string) telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.Pipeline.Start(name)
}

// StartWindow starts the span timing one whole maintenance window.
func (m *Metrics) StartWindow() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.WindowSeconds.Start()
}

// WindowDone accounts one completed window: its object count and the
// per-object considered, filtered, suspicious and degraded totals.
func (m *Metrics) WindowDone(rep *ProcessReport) {
	if m == nil {
		return
	}
	m.WindowsProcessed.Inc()
	m.WindowObjects.Observe(float64(len(rep.Objects)))
	for _, o := range rep.Objects {
		m.RatingsConsidered.Add(uint64(o.Considered))
		m.RatingsFiltered.Add(uint64(o.Filtered))
		m.SuspiciousWindows.Add(uint64(len(o.Detection.SuspiciousWindows())))
		if o.Degraded {
			m.DegradedObjects.Inc()
		}
	}
}
