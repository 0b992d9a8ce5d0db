package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/parallel"
	"repro/internal/rating"
	"repro/internal/telemetry"
	"repro/internal/trust"
)

// RaterEvidence is one rater's Procedure 2 evidence from a single
// object's scan: three integer counts plus the one float the trust
// fold is order-sensitive in. A cluster router folds these across
// members in ascending object order — the canonical single-system
// order — and the result is bit-identical to an unpartitioned
// ProcessWindow, because each (object, rater) pair contributes exactly
// one float add and JSON float64 round-trips are exact.
type RaterEvidence struct {
	Rater      rating.RaterID
	N          int
	Filtered   int
	Suspicious int
	Mass       float64
}

// ObjectEvidence is one object's maintenance-window outcome in
// transportable form: the report counters shardtest fingerprints plus
// the per-rater evidence, raters ascending.
type ObjectEvidence struct {
	Object            rating.ObjectID
	Considered        int
	Filtered          int
	Windows           int
	SuspiciousWindows int
	Degraded          bool
	Raters            []RaterEvidence
}

// ScanWindow runs the scan half of a maintenance window — restrict,
// filter, detect — over every local object with time in [start, end),
// without charging trust. The returned evidence (objects ascending) is
// what a cluster member ships to the router, which folds all members'
// evidence and broadcasts the merged observations back through
// ApplyObservations.
//
// ScanWindow refuses to run when a window-level aux detector (the
// collusion graph or the iterative filter) is configured: those need
// the whole window's cross-object ratings, which a member scanning
// only its owned range cannot supply. Cluster deployments run the
// per-object AR pipeline.
func (e *Engine) ScanWindow(start, end float64) ([]ObjectEvidence, error) {
	if end <= start {
		return nil, fmt.Errorf("shard: window [%g,%g)", start, end)
	}
	if e.cfg.Collusion != nil || e.cfg.Iterative != nil {
		return nil, fmt.Errorf("shard: ScanWindow with window-level aux detectors configured (collusion/iterative need the whole window's cross-object ratings)")
	}
	e.lockAll()
	defer e.unlockAll()
	scans, err := e.scanLocked(start, end)
	if err != nil {
		return nil, err
	}

	var out []ObjectEvidence
	for _, scan := range scans {
		if !scan.OK {
			continue
		}
		// Charge into a fresh single-object map: with exactly one scan
		// folded, each rater's Mass is a single float assignment, so
		// the evidence carries the object's contribution exactly.
		obs := make(map[rating.RaterID]trust.Observation)
		e.pipe.Charge(obs, scan)
		ev := ObjectEvidence{
			Object:            scan.Report.Object,
			Considered:        scan.Report.Considered,
			Filtered:          scan.Report.Filtered,
			Windows:           len(scan.Report.Detection.Windows),
			SuspiciousWindows: len(scan.Report.Detection.SuspiciousWindows()),
			Degraded:          scan.Report.Degraded,
		}
		ids := make([]rating.RaterID, 0, len(obs))
		for id := range obs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			o := obs[id]
			ev.Raters = append(ev.Raters, RaterEvidence{
				Rater:      id,
				N:          o.N,
				Filtered:   o.Filtered,
				Suspicious: o.Suspicious,
				Mass:       o.SuspicionMass,
			})
		}
		out = append(out, ev)
	}
	return out, nil
}

// FoldEvidence replays the canonical trust fold over per-object
// evidence: objects must already be in ascending object order (the
// order ScanWindow emits and a router merges to). It reproduces
// Pipeline.Charge's accumulation bit for bit — one float add per
// (object, rater) pair, in the same order a single system performs
// them.
func FoldEvidence(objects []ObjectEvidence) map[rating.RaterID]trust.Observation {
	obs := make(map[rating.RaterID]trust.Observation)
	for _, ev := range objects {
		for _, re := range ev.Raters {
			o := obs[re.Rater]
			o.N += re.N
			o.Filtered += re.Filtered
			o.Suspicious += re.Suspicious
			o.SuspicionMass += re.Mass
			obs[re.Rater] = o
		}
	}
	return obs
}

// scanLocked runs the scan half of a window — restrict, filter,
// detect — over every object on every shard, ascending by object ID
// across shards: the order a single System scans in. Each object's
// store copies out only the window's ratings, which ScanObject's own
// restriction then keeps whole, without a second copy. The caller
// holds every shard lock.
func (e *Engine) scanLocked(start, end float64) ([]core.ObjectScan, error) {
	var objects []rating.ObjectID
	byObject := make(map[rating.ObjectID]*shardState)
	for _, st := range e.states {
		for _, obj := range st.store.Objects() {
			objects = append(objects, obj)
			byObject[obj] = st
		}
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i] < objects[j] })

	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	return parallel.MapLocal(len(objects), workers,
		detector.NewWorkspace,
		func(i int, ws *detector.Workspace) (core.ObjectScan, error) {
			obj := objects[i]
			window, err := byObject[obj].store.Window(obj, start, end)
			if err != nil {
				return core.ObjectScan{}, fmt.Errorf("shard: %w", err)
			}
			return e.pipe.ScanObject(ws, obj, window, start, end)
		})
}

// ApplyObservations applies an externally-folded window's observations
// to the global trust manager — the charge half of a maintenance
// window, used by cluster members after the router merges every
// member's scan evidence. It runs the same apply as ProcessWindow, so
// a member applying the merged batch lands on the same trust state as
// a single system running the whole window.
func (e *Engine) ApplyObservations(obs map[rating.RaterID]trust.Observation, end float64) error {
	return e.applyWindow(obs, end, telemetry.Span{})
}

// applyWindow charges a window's observations to the global trust
// manager at time end and ends span. With streaming detection on, it
// then pushes an alert for every rater the charge newly flagged; the
// diff behind the alerts only reads the manager, so the charge
// arithmetic is the same with or without streaming.
func (e *Engine) applyWindow(obs map[rating.RaterID]trust.Observation, end float64, span telemetry.Span) error {
	sp := e.streaming.Load()
	var prevMal []rating.RaterID
	e.trustMu.Lock()
	if sp != nil {
		prevMal = e.manager.Malicious()
	}
	err := e.manager.UpdateBatch(obs, end)
	if err == nil && end > e.lastWindowEnd {
		e.lastWindowEnd = end
	}
	var newMal []rating.RaterID
	var newTrust map[rating.RaterID]float64
	if err == nil && sp != nil {
		was := make(map[rating.RaterID]bool, len(prevMal))
		for _, id := range prevMal {
			was[id] = true
		}
		for _, id := range e.manager.Malicious() {
			if !was[id] {
				newMal = append(newMal, id)
			}
		}
		if len(newMal) > 0 {
			newTrust = make(map[rating.RaterID]float64, len(newMal))
			for _, id := range newMal {
				newTrust[id] = e.manager.Trust(id)
			}
		}
	}
	e.trustMu.Unlock()
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	span.End()
	if sp != nil {
		sp.sink.flagWindow(newMal, newTrust, end)
	}
	return nil
}
