package server

// Read-replica serving: a follower daemon fronts the same Server as a
// primary, but marks it as a bounded-staleness replica. Reads carry an
// X-Replica-Lag header and are refused with a typed 503
// (replica_stale) once the replica falls past its staleness bound;
// mutations are refused with a typed 421 (not_primary) envelope that
// names the primary. A Server is a replica for its whole lifetime: at
// promotion the daemon builds a primary's Server and switches to it.

import (
	"fmt"
	"net/http"

	"repro/internal/api"
)

// ReplicaLagHeader reports a replica's staleness on every read
// response: "records=<behind> seconds=<age>".
const ReplicaLagHeader = "X-Replica-Lag"

// ReplicaInfo is a point-in-time view of a replica's staleness,
// sampled by the serving gate on every request.
type ReplicaInfo struct {
	// Primary is the primary's base URL, included in not_primary
	// envelopes so clients can redirect their writes.
	Primary string
	// Ready is false until the first successful bootstrap.
	Ready bool
	// LagRecords / LagSeconds are the current staleness.
	LagRecords uint64
	LagSeconds float64
	// MaxLagRecords / MaxLagSeconds bound how stale a read may be; a
	// zero bound is unenforced.
	MaxLagRecords uint64
	MaxLagSeconds float64
}

// WithReplica marks the server as a read replica; info is sampled per
// request (the follower's live lag). Passing it as a function keeps
// the server free of the repl package.
func WithReplica(info func() ReplicaInfo) Option {
	return func(s *Server) { s.replica = info }
}

// replicaGate enforces the replica serving contract around next. A
// server that is no replica serves next as it is.
func (s *Server) replicaGate(next http.Handler) http.Handler {
	if s.replica == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		rep := s.replica()
		// Alerts reflect the primary's live detection state — a replica
		// has no streaming engine — so the read is misdirected, not
		// merely stale.
		if r.Method != http.MethodGet || r.URL.Path == alertsPath {
			api.WriteJSON(w, r, http.StatusMisdirectedRequest,
				api.NewError(api.CodeNotPrimary,
					"this node is a read replica; send writes to the primary").
					WithPrimary(rep.Primary))
			return
		}
		w.Header().Set(ReplicaLagHeader,
			fmt.Sprintf("records=%d seconds=%.3f", rep.LagRecords, rep.LagSeconds))
		if !rep.Ready {
			api.WriteJSON(w, r, http.StatusServiceUnavailable,
				api.NewError(api.CodeReplicaStale,
					"replica is bootstrapping and not yet serving reads").
					WithRetryAfter(1))
			return
		}
		if (rep.MaxLagRecords > 0 && rep.LagRecords > rep.MaxLagRecords) ||
			(rep.MaxLagSeconds > 0 && rep.LagSeconds > rep.MaxLagSeconds) {
			api.WriteJSON(w, r, http.StatusServiceUnavailable,
				api.NewError(api.CodeReplicaStale,
					"replica lag %d records / %.3fs exceeds bound %d records / %gs",
					rep.LagRecords, rep.LagSeconds, rep.MaxLagRecords, rep.MaxLagSeconds).
					WithRetryAfter(1))
			return
		}
		next.ServeHTTP(w, r)
	})
}
