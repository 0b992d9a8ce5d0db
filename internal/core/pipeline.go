package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/collusion"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/trust"
)

// Pipeline is the stateless per-object detection and aggregation
// machinery of a System, factored out so a sharded engine can run the
// exact same arithmetic per shard and still produce bit-identical
// results: every float operation an object's maintenance scan or
// aggregation performs lives here, and the callers only decide which
// objects to scan and in which order to fold the evidence.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates cfg and returns the pipeline. The same
// defaulting rules as NewSystem apply.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Detector.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Collusion != nil {
		if err := cfg.Collusion.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Iterative != nil {
		if err := cfg.Iterative.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return &Pipeline{cfg: cfg}, nil
}

// Config returns the defaulted configuration the pipeline runs with.
func (p *Pipeline) Config() Config { return p.cfg }

// ObjectScan is one object's maintenance-window outcome: the report
// plus the raw in-window ratings Procedure 2 charges n from. OK is
// false when the object had no ratings in the window.
type ObjectScan struct {
	Report ObjectReport
	Window []rating.Rating
	OK     bool
}

// ScanObject runs one object's share of a maintenance window over
// [start, end): restrict `all` (the object's time-sorted ratings) to
// the window, split normal from abnormal with the filter, and scan the
// normal ones with Procedure 1. A failed detector fit degrades the
// object to filter-only evidence instead of failing the scan. ws may
// be nil (a workspace is allocated per call).
//
// The scan's Window is a subslice of `all`, not a copy, so `all` must
// be the caller's own copy (Store.ForObject and Store.Window return
// one) and must not change while the scan is in use.
func (p *Pipeline) ScanObject(ws *detector.Workspace, obj rating.ObjectID, all []rating.Rating, start, end float64) (ObjectScan, error) {
	lo := sort.Search(len(all), func(i int) bool { return all[i].Time >= start })
	hi := sort.Search(len(all), func(i int) bool { return !(all[i].Time < end) })
	if hi <= lo {
		return ObjectScan{}, nil
	}
	window := all[lo:hi:hi]

	filterSpan := p.cfg.Metrics.Stage(StageFilter)
	res, err := p.cfg.Filter.Apply(window)
	filterSpan.End()
	if err != nil {
		return ObjectScan{}, fmt.Errorf("core: filter object %d: %w", obj, err)
	}

	dcfg := p.cfg.Detector
	dcfg.Mode = detector.WindowByTime
	dcfg.T0 = start
	dcfg.End = end
	rep := ObjectReport{
		Object:     obj,
		Considered: len(window),
		Filtered:   len(res.Rejected),
		Accepted:   res.Accepted,
		Rejected:   res.Rejected,
	}
	fitSpan := p.cfg.Metrics.Stage(StageARFit)
	det, err := detector.DetectWS(res.Accepted, dcfg, ws)
	fitSpan.End()
	if err != nil {
		// Graceful degradation: one object's failed fit (e.g. a
		// singular AR system) must not fail the whole maintenance
		// window. The object keeps its filter evidence and contributes
		// no suspicion.
		rep.Degraded = true
		rep.DetectorError = fmt.Sprintf("core: detect object %d: %v", obj, err)
	} else {
		rep.Detection = det
	}
	return ObjectScan{Report: rep, Window: window, OK: true}, nil
}

// Charge folds one object scan into the per-rater Procedure 2
// observations: n from the raw window, f from the filter, s and C from
// the detector (which only saw accepted ratings, so f + s <= n holds
// by construction). Callers must fold scans in ascending object order
// — suspicion mass is a float sum, so the fold order is part of the
// bit-exact contract.
func (p *Pipeline) Charge(obs map[rating.RaterID]trust.Observation, scan ObjectScan) {
	for _, r := range scan.Window {
		o := obs[r.Rater]
		o.N++
		obs[r.Rater] = o
	}
	for _, r := range scan.Report.Rejected {
		o := obs[r.Rater]
		o.Filtered++
		obs[r.Rater] = o
	}
	for id, stats := range scan.Report.Detection.PerRater {
		o := obs[id]
		o.Suspicious += stats.SuspiciousRatings
		o.SuspicionMass += stats.Suspicion
		obs[id] = o
	}
}

// ChargeWindow runs the configured window-level detectors — the
// collusion graph and the iterative filter, both of which need the
// whole window's cross-object evidence rather than one object's — over
// the accepted ratings of every scan and folds their suspicion into
// obs. It must be called after every per-object Charge fold: the
// clamping below relies on each rater's n and f already being final.
// A no-op when neither detector is configured, so the paper's baseline
// pipeline (and its golden fixtures) are untouched.
//
// Both callers (System and the sharded engine) pass scans in ascending
// object order and the detectors canonicalize internally, so the added
// mass is a pure function of the window's ratings — part of the
// bit-exact contract.
func (p *Pipeline) ChargeWindow(obs map[rating.RaterID]trust.Observation, scans []ObjectScan) error {
	if p.cfg.Collusion == nil && p.cfg.Iterative == nil {
		return nil
	}
	var accepted []rating.Rating
	counts := make(map[rating.RaterID]int)
	for _, scan := range scans {
		if !scan.OK {
			continue
		}
		for _, r := range scan.Report.Accepted {
			accepted = append(accepted, r)
			counts[r.Rater]++
		}
	}
	if len(accepted) == 0 {
		return nil
	}

	mass := make(map[rating.RaterID]float64)
	if p.cfg.Collusion != nil {
		rep, err := collusion.Detect(accepted, *p.cfg.Collusion)
		if err != nil {
			return fmt.Errorf("core: collusion: %w", err)
		}
		for id, s := range rep.Suspicion {
			mass[id] += s
		}
	}
	if p.cfg.Iterative != nil {
		res, err := detector.IterativeFilter(accepted, *p.cfg.Iterative)
		if err != nil {
			return fmt.Errorf("core: iterative: %w", err)
		}
		for id, s := range res.Suspicion {
			mass[id] += s
		}
	}
	if len(mass) == 0 {
		return nil
	}

	ids := make([]rating.RaterID, 0, len(mass))
	for id := range mass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := obs[id]
		o.SuspicionMass += mass[id]
		// Mark the rater's accepted in-window ratings suspicious, but
		// never past Observation.Validate's f + s <= n invariant (the AR
		// detector may have claimed some already).
		inc := counts[id]
		if room := o.N - o.Filtered - o.Suspicious; inc > room {
			inc = room
		}
		if inc > 0 {
			o.Suspicious += inc
		}
		obs[id] = o
	}
	return nil
}

// AggregateRatings produces one object's trust-enhanced aggregate from
// its candidate ratings (already restricted to any time window):
// ratings from raters below the malicious-trust threshold are dropped,
// the filter removes abnormal ratings, each remaining rater
// contributes their latest rating, and the configured aggregator
// weighs them by trust (falling back per the config). trustOf supplies
// the current trust in a rater. The distrusted ratings are dropped in
// place, so `all` must be the caller's own copy, which it must not
// read again.
func (p *Pipeline) AggregateRatings(obj rating.ObjectID, all []rating.Rating, trustOf func(rating.RaterID) float64) (AggregateResult, error) {
	threshold := p.cfg.Trust.MaliciousThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	kept := all[:0]
	for _, r := range all {
		if trustOf(r.Rater) >= threshold {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		// Every rater is distrusted; aggregate what exists rather than
		// failing (the fallback aggregator owns this case). Nothing was
		// written, so all is intact.
		kept = all
	}
	res, err := p.cfg.Filter.Apply(kept)
	if err != nil {
		return AggregateResult{}, fmt.Errorf("core: filter object %d: %w", obj, err)
	}
	// Latest rating per rater (input is time-sorted, so overwriting
	// keeps the newest), then a deterministic rater order.
	latest := make(map[rating.RaterID]float64)
	for _, r := range res.Accepted {
		latest[r.Rater] = r.Value
	}
	ids := make([]rating.RaterID, 0, len(latest))
	for id := range latest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	values := make([]float64, len(ids))
	trusts := make([]float64, len(ids))
	for i, id := range ids {
		values[i] = latest[id]
		trusts[i] = trustOf(id)
	}

	out := AggregateResult{Object: obj, Used: len(ids), Filtered: len(res.Rejected)}
	v, err := p.cfg.Aggregator.Aggregate(values, trusts)
	if errors.Is(err, trust.ErrNoTrustedRaters) {
		out.FellBack = true
		v, err = p.cfg.Fallback.Aggregate(values, trusts)
	}
	if err != nil {
		return AggregateResult{}, fmt.Errorf("core: aggregate object %d: %w", obj, err)
	}
	out.Value = v
	return out, nil
}
