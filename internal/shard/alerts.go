package shard

import (
	"context"
	"sync"
	"time"

	"repro/internal/rating"
)

// Alert sources: which detection path flagged the rater.
const (
	// AlertSourceStream is the online AR detector: accrued stream
	// suspicion crossed the alert threshold.
	AlertSourceStream = "stream"
	// AlertSourceWindow is authoritative Procedure 2 charging: the
	// rater's trust dropped below the malicious threshold at a
	// maintenance-window close.
	AlertSourceWindow = "window"
)

// Alert is one newly-flagged rater. A rater is alerted at most once
// per source; the authoritative malicious list remains the trust
// manager's — alerts are the push-side view of it plus the online
// early warnings.
type Alert struct {
	// Seq is the alert's position in the log, ascending from 1.
	Seq uint64
	// Rater is the flagged rater.
	Rater rating.RaterID
	// Source is one of the AlertSource constants.
	Source string
	// Suspicion is the evidence level at flag time: accrued stream
	// suspicion (stream) or the rater's post-window trust (window).
	Suspicion float64
	// FirstFlagged is the rating-clock time (days) of the evidence
	// that tripped the flag: the rating completing the suspicious
	// window (stream) or the maintenance-window end (window).
	FirstFlagged float64
	// Wall is the wall-clock flag time.
	Wall time.Time
}

type raterObj struct {
	rater rating.RaterID
	obj   rating.ObjectID
}

type flagKey struct {
	source string
	rater  rating.RaterID
}

// AlertLog accumulates alerts and the advisory suspicion state behind
// them, and supports long-poll reads. It is safe for concurrent use.
type AlertLog struct {
	// mu guards everything below. notify is closed and replaced each
	// time an alert is appended, broadcasting to long-pollers.
	mu        sync.Mutex
	threshold float64
	metrics   *Metrics

	alerts []Alert
	notify chan struct{}

	// byRaterObj holds the AR-stream suspicion accrued per (rater,
	// object) — the order-free form, so totals can be folded in a
	// canonical order for fingerprints no matter how shard pumps
	// interleaved. totals mirrors the running per-rater sum for cheap
	// threshold checks; stream accrual is monotone, so the flag
	// decision is order-independent even though the running sum's
	// float folds are not.
	byRaterObj map[raterObj]float64
	totals     map[rating.RaterID]float64
	flagged    map[flagKey]bool
}

func newAlertLog(threshold float64, m *Metrics) *AlertLog {
	return &AlertLog{
		threshold:  threshold,
		metrics:    m,
		notify:     make(chan struct{}),
		byRaterObj: make(map[raterObj]float64),
		totals:     make(map[rating.RaterID]float64),
		flagged:    make(map[flagKey]bool),
	}
}

// appendLocked adds one alert and wakes long-pollers. Callers hold mu.
func (a *AlertLog) appendLocked(al Alert) {
	al.Seq = uint64(len(a.alerts) + 1)
	al.Wall = time.Now()
	a.alerts = append(a.alerts, al)
	close(a.notify)
	a.notify = make(chan struct{})
	a.metrics.alertEmitted(al.Source)
}

// accrueStream folds one positive AR-stream suspicion delta for
// (rater, obj) and flags the rater when its running total crosses the
// threshold.
func (a *AlertLog) accrueStream(id rating.RaterID, obj rating.ObjectID, delta, at float64) {
	a.mu.Lock()
	a.byRaterObj[raterObj{id, obj}] += delta
	a.totals[id] += delta
	k := flagKey{AlertSourceStream, id}
	if !a.flagged[k] && a.totals[id] >= a.threshold {
		a.flagged[k] = true
		a.appendLocked(Alert{
			Rater: id, Source: AlertSourceStream,
			Suspicion: a.totals[id], FirstFlagged: at,
		})
	}
	a.mu.Unlock()
}

// seedWindowFlags marks raters as already window-flagged without
// emitting alerts. EnableStreaming seeds from the recovered malicious
// list so a restarted node's flag state derives from durable trust
// state rather than starting empty — post-recovery closes then alert
// only genuinely new raters, and fingerprints match a never-crashed
// run.
func (a *AlertLog) seedWindowFlags(ids []rating.RaterID) {
	a.mu.Lock()
	for _, id := range ids {
		a.flagged[flagKey{AlertSourceWindow, id}] = true
	}
	a.mu.Unlock()
}

// flagWindow records raters newly judged malicious by a maintenance
// window that closed at end; trust carries their post-window value.
func (a *AlertLog) flagWindow(ids []rating.RaterID, trust map[rating.RaterID]float64, end float64) {
	if len(ids) == 0 {
		return
	}
	a.mu.Lock()
	for _, id := range ids {
		k := flagKey{AlertSourceWindow, id}
		if a.flagged[k] {
			continue
		}
		a.flagged[k] = true
		a.appendLocked(Alert{
			Rater: id, Source: AlertSourceWindow,
			Suspicion: trust[id], FirstFlagged: end,
		})
	}
	a.mu.Unlock()
}

// Alerts returns the alerts with Seq > since, plus the log's current
// tail sequence (pass it back as since to resume).
func (a *AlertLog) Alerts(since uint64) ([]Alert, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sliceLocked(since)
}

func (a *AlertLog) sliceLocked(since uint64) ([]Alert, uint64) {
	next := uint64(len(a.alerts))
	if since >= next {
		return nil, next
	}
	out := make([]Alert, next-since)
	copy(out, a.alerts[since:])
	return out, next
}

// WaitAlerts is the long-poll read: it returns immediately when alerts
// newer than since exist, otherwise blocks up to wait (or until ctx is
// done) for one to arrive. A nil slice with the unchanged tail means
// the poll timed out.
func (a *AlertLog) WaitAlerts(ctx context.Context, since uint64, wait time.Duration) ([]Alert, uint64) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		out, next := a.sliceLocked(since)
		ch := a.notify
		a.mu.Unlock()
		if len(out) > 0 {
			return out, next
		}
		select {
		case <-ch:
		case <-deadline.C:
			return nil, next
		case <-ctx.Done():
			return nil, next
		}
	}
}
