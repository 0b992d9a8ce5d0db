package server

// The alerts endpoint: a long-poll push surface for the streaming
// detection path. The daemon installs an AlertSource (an adapter over
// shard.Streaming's alert log); clients read with
//
//	GET /v1/alerts?since=<seq>&wait=<seconds>
//
// and get every alert with Seq > since, blocking up to wait seconds
// for one to arrive. A timed-out poll is a 200 with an empty alerts
// array and the unchanged tail sequence — never an error — so clients
// loop on since=Next without special cases. Nodes without streaming
// detection answer 404 not_found; read replicas answer 421
// not_primary, because alerts reflect the primary's live detection
// state and are not replicated.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// alertsPath is the long-poll route; exempt from the whole-request
// timeout (a poll is legitimately open for its full wait budget).
const alertsPath = "/v1/alerts"

// maxAlertWait caps how long one poll may hold its connection; longer
// requested waits are clamped, and clients simply re-poll.
const maxAlertWait = 30 * time.Second

// AlertSource is the detection-alert feed a Server fronts, in wire
// types; cmd/ratingd adapts shard.Streaming's alert log to it.
type AlertSource interface {
	// Alerts returns the alerts with Seq > since and the log's tail
	// sequence.
	Alerts(since uint64) ([]api.Alert, uint64)
	// WaitAlerts is the blocking form: it waits up to wait (or until
	// ctx is done) for an alert newer than since. A timed-out wait
	// returns an empty slice and the unchanged tail.
	WaitAlerts(ctx context.Context, since uint64, wait time.Duration) ([]api.Alert, uint64)
}

// WithAlerts installs the detection-alert feed at construction.
func WithAlerts(src AlertSource) Option {
	return func(s *Server) { s.alerts = src }
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	src := s.alerts
	if src == nil {
		writeError(w, r, http.StatusNotFound,
			errors.New("streaming detection is not enabled on this node"))
		return
	}
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("since %q: must be a non-negative integer", v))
			return
		}
		since = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("wait %q: must be non-negative seconds", v))
			return
		}
		wait = time.Duration(secs * float64(time.Second))
		if wait > maxAlertWait {
			wait = maxAlertWait
		}
	}

	var alerts []api.Alert
	var next uint64
	if wait > 0 {
		alerts, next = src.WaitAlerts(r.Context(), since, wait)
	} else {
		alerts, next = src.Alerts(since)
	}
	if alerts == nil {
		alerts = []api.Alert{}
	}
	api.WriteJSON(w, r, http.StatusOK, api.AlertsResponse{Alerts: alerts, Next: next})
}
