// Package core assembles the paper's primary contribution: the
// trust-enhanced rating aggregation system of Fig 1. It wires the
// rating filter (feature extraction I), the AR-signal-modeling detector
// (feature extraction II, Procedure 1), the trust manager (Procedure 2
// with record maintenance and malicious-rater detection) and the
// trust-weighted rating aggregation (Method 3) into one System with the
// lifecycle the evaluation uses: submit ratings, process maintenance
// windows, read aggregated ratings and trust.
package core

import (
	"fmt"
	"sort"

	"repro/internal/collusion"
	"repro/internal/detector"
	"repro/internal/filter"
	"repro/internal/parallel"
	"repro/internal/rating"
	"repro/internal/trust"
)

// Config assembles a System. Zero fields take the paper's §IV defaults.
type Config struct {
	// Filter is feature extraction I's rating filter; nil means the
	// Beta filter with sensitivity 0.1.
	Filter filter.Filter
	// Detector configures Procedure 1. Its windowing mode/interval are
	// overridden per maintenance window; width, step, order, threshold,
	// scale and signal options are honored (§IV: width 10, step 5,
	// threshold 0.02, b = 1).
	Detector detector.Config
	// Trust configures Procedure 2 and record maintenance.
	Trust trust.ManagerConfig
	// Collusion, when non-nil, runs the collusion-graph detector over
	// each maintenance window's accepted ratings and charges grouped
	// raters' suspicion mass into Procedure 2 alongside the AR
	// detector's. Nil disables it (the paper's baseline pipeline).
	Collusion *collusion.Config
	// Iterative, when non-nil, runs the iterative-filtering baseline
	// (de Kerchove & Van Dooren) over each maintenance window's
	// accepted ratings and charges low-weight raters the same way. Nil
	// disables it.
	Iterative *detector.IterativeConfig
	// Aggregator combines filtered ratings with trust; nil means the
	// modified weighted average (Method 3).
	Aggregator trust.Aggregator
	// Fallback is used when Aggregator reports ErrNoTrustedRaters; nil
	// means the simple average. Set to NoFallback to propagate the
	// error instead.
	Fallback trust.Aggregator
	// Workers bounds the per-object fan-out of ProcessWindow: each
	// object's filter+detector pass is independent, so a maintenance
	// window over many objects parallelizes cleanly. 0 or 1 means
	// serial (the library default); reports are committed in object
	// order either way, so results are bit-identical for any value.
	Workers int
	// Metrics receives pipeline telemetry (stage spans, per-window
	// gauges, degraded-object counts); nil disables instrumentation.
	Metrics *Metrics
}

// NoFallback disables the aggregation fallback: Aggregate returns
// trust.ErrNoTrustedRaters when every rater is at the floor.
var NoFallback trust.Aggregator = noFallback{}

type noFallback struct{}

func (noFallback) Name() string { return "no-fallback" }
func (noFallback) Aggregate(_, _ []float64) (float64, error) {
	return 0, trust.ErrNoTrustedRaters
}

func (c Config) withDefaults() Config {
	if c.Filter == nil {
		c.Filter = filter.Beta{Q: 0.1}
	}
	if c.Aggregator == nil {
		c.Aggregator = trust.ModifiedWeightedAverage{}
	}
	if c.Fallback == nil {
		c.Fallback = trust.SimpleAverage{}
	}
	return c
}

// System is the assembled trust-enhanced rating system. It is not safe
// for concurrent use.
type System struct {
	// cfg aliases the pipeline's defaulted configuration, so in-place
	// tuning (tests flip detector knobs after construction) reaches
	// the scans the pipeline runs.
	cfg     *Config
	pipe    *Pipeline
	store   *rating.Store
	manager *trust.Manager
}

// NewSystem builds a System; it returns an error on invalid
// sub-configuration.
func NewSystem(cfg Config) (*System, error) {
	pipe, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	manager, err := trust.NewManager(pipe.cfg.Trust)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{cfg: &pipe.cfg, pipe: pipe, store: rating.NewStore(), manager: manager}, nil
}

// Submit records one raw rating.
func (s *System) Submit(r rating.Rating) error {
	if err := s.store.Add(r); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// SubmitAll records a batch of raw ratings, stopping at the first
// invalid one.
func (s *System) SubmitAll(rs []rating.Rating) error {
	for _, r := range rs {
		if err := s.Submit(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of stored ratings.
func (s *System) Len() int { return s.store.Len() }

// ObjectReport is the per-object outcome of one maintenance window.
type ObjectReport struct {
	Object rating.ObjectID
	// Considered is how many of the object's ratings fell inside the
	// window.
	Considered int
	// Filtered is how many the rating filter rejected.
	Filtered int
	// Accepted and Rejected are the filter's partition of the window's
	// ratings; Detection's window indices (Lo, Hi) refer to Accepted.
	Accepted, Rejected []rating.Rating
	// Detection is Procedure 1's report over the accepted ratings.
	Detection detector.Report
	// Degraded reports that the detector failed on this object (e.g. a
	// singular AR fit) and the window fell back to filter-only
	// evidence: the object still contributes n and f to Procedure 2,
	// but no suspicion. DetectorError carries the failure.
	Degraded      bool
	DetectorError string
}

// FlaggedRatings returns the accepted ratings lying in at least one
// suspicious window — the per-rating detections the fig9 experiment
// scores against ground truth.
func (o ObjectReport) FlaggedRatings() []rating.Rating {
	marked := make([]bool, len(o.Accepted))
	for _, w := range o.Detection.Windows {
		if !w.Suspicious {
			continue
		}
		for i := w.Window.Lo; i < w.Window.Hi && i < len(marked); i++ {
			marked[i] = true
		}
	}
	var out []rating.Rating
	for i, m := range marked {
		if m {
			out = append(out, o.Accepted[i])
		}
	}
	return out
}

// ProcessReport summarizes one maintenance window.
type ProcessReport struct {
	Start, End float64
	Objects    []ObjectReport
	// Observations are the per-rater Procedure 2 inputs that were
	// applied to the trust manager.
	Observations map[rating.RaterID]trust.Observation
}

// DegradedObjects returns the objects whose detector pass failed and
// fell back to filter-only evidence, in report order.
func (r ProcessReport) DegradedObjects() []rating.ObjectID {
	var out []rating.ObjectID
	for _, o := range r.Objects {
		if o.Degraded {
			out = append(out, o.Object)
		}
	}
	return out
}

// ProcessWindow runs one maintenance pass over every object's ratings
// with time in [start, end): the filter splits normal from abnormal
// ratings, the detector scans the normal ones for suspicious intervals,
// and the combined evidence updates every involved rater's trust record
// (Procedure 2) at time `end`.
//
// The §IV schedule calls this once per 30-day month.
func (s *System) ProcessWindow(start, end float64) (ProcessReport, error) {
	if end <= start {
		return ProcessReport{}, fmt.Errorf("core: window [%g,%g)", start, end)
	}
	winSpan := s.cfg.Metrics.StartWindow()
	report := ProcessReport{
		Start:        start,
		End:          end,
		Observations: make(map[rating.RaterID]trust.Observation),
	}

	objects := s.store.Objects()
	sort.Slice(objects, func(i, j int) bool { return objects[i] < objects[j] })

	// Per-object scans are independent (the store is read-only during a
	// maintenance pass), so they fan out over the worker pool; results
	// are committed in object order, making the report bit-identical
	// for any worker count. Each worker owns one detector workspace.
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	scans, err := parallel.MapLocal(len(objects), workers,
		detector.NewWorkspace,
		func(i int, ws *detector.Workspace) (ObjectScan, error) {
			obj := objects[i]
			all, err := s.store.ForObject(obj)
			if err != nil {
				return ObjectScan{}, fmt.Errorf("core: %w", err)
			}
			return s.pipe.ScanObject(ws, obj, all, start, end)
		})
	if err != nil {
		return ProcessReport{}, err
	}

	chargeSpan := s.cfg.Metrics.Stage(StageCharge)
	for _, scan := range scans {
		if !scan.OK {
			continue
		}
		report.Objects = append(report.Objects, scan.Report)
		s.pipe.Charge(report.Observations, scan)
	}
	if err := s.pipe.ChargeWindow(report.Observations, scans); err != nil {
		return ProcessReport{}, err
	}
	chargeSpan.End()

	trustSpan := s.cfg.Metrics.Stage(StageTrustUpdate)
	if err := s.manager.UpdateBatch(report.Observations, end); err != nil {
		return ProcessReport{}, fmt.Errorf("core: %w", err)
	}
	trustSpan.End()
	winSpan.End()
	s.cfg.Metrics.WindowDone(&report)
	return report, nil
}

// AggregateResult is the outcome of aggregating one object's ratings.
type AggregateResult struct {
	Object rating.ObjectID
	// Value is the aggregated rating.
	Value float64
	// Used is how many (rater-deduplicated, filter-accepted) ratings
	// entered the aggregation.
	Used int
	// Filtered is how many ratings the filter removed first.
	Filtered int
	// FellBack reports that the primary aggregator found no rater above
	// the trust floor and the fallback was used.
	FellBack bool
}

// AggregateWindow is Aggregate restricted to ratings with time in
// [start, end) — the paper's motivating use of small time windows "to
// catch the dynamic behavior of the object being rated" (§I). The
// restriction is exactly where the majority rule gets thin and the
// trust pipeline earns its keep.
func (s *System) AggregateWindow(obj rating.ObjectID, start, end float64) (AggregateResult, error) {
	if end <= start {
		return AggregateResult{}, fmt.Errorf("core: aggregate window [%g,%g)", start, end)
	}
	return s.aggregate(obj, func(r rating.Rating) bool {
		return r.Time >= start && r.Time < end
	})
}

// Aggregate produces the object's trust-enhanced aggregated rating:
// ratings from raters already below the malicious-trust threshold are
// dropped first (so a detected clique cannot steer the filter's
// majority estimate — see the ablation-attacks experiment), then the
// filter removes abnormal ratings, each remaining rater contributes
// their latest rating, and the configured aggregator weighs them by
// trust.
func (s *System) Aggregate(obj rating.ObjectID) (AggregateResult, error) {
	return s.aggregate(obj, func(rating.Rating) bool { return true })
}

func (s *System) aggregate(obj rating.ObjectID, include func(rating.Rating) bool) (AggregateResult, error) {
	all, err := s.store.ForObject(obj)
	if err != nil {
		return AggregateResult{}, fmt.Errorf("core: %w", err)
	}
	kept := all[:0]
	for _, r := range all {
		if include(r) {
			kept = append(kept, r)
		}
	}
	return s.pipe.AggregateRatings(obj, kept, s.manager.Trust)
}

// TrustIn returns the system's current trust in a rater (0.5 for
// unknown raters).
func (s *System) TrustIn(id rating.RaterID) float64 { return s.manager.Trust(id) }

// TrustSnapshot returns every tracked rater's trust.
func (s *System) TrustSnapshot() map[rating.RaterID]float64 { return s.manager.Snapshot() }

// TrustDistribution bins every tracked rater's trust into the given
// sorted upper bounds (cumulative counts; see trust.Manager).
func (s *System) TrustDistribution(bounds []float64) []int {
	return s.manager.TrustDistribution(bounds)
}

// RaterCount returns the number of tracked trust records.
func (s *System) RaterCount() int { return s.manager.Len() }

// MaliciousRaters returns raters currently below the malicious-trust
// threshold, sorted by ID.
func (s *System) MaliciousRaters() []rating.RaterID { return s.manager.Malicious() }

// RecordRecommendations exposes indirect trust: it returns the
// recommendation-derived trust in `about` given the buffered
// recommendations (Fig 1's Recommendation Buffer path).
func (s *System) RecordRecommendations(about rating.RaterID, recs []trust.Recommendation) (float64, error) {
	v, err := s.manager.IndirectTrust(about, recs)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return v, nil
}
