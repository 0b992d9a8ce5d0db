package server

// Read-replica serving: a follower daemon fronts the same Server as a
// primary, but marks it as a bounded-staleness replica. Reads carry an
// X-Replica-Lag header and are refused with a typed 503
// (replica_stale) once the replica falls past its staleness bound;
// mutations are refused with a typed 421 (not_primary) envelope that
// names the primary. At promotion the daemon clears the replica marker
// and installs a journal, and the same Server starts serving as a
// primary without restarting.

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
// request (the follower's live lag). Passing it as a function — rather
// than importing the repl package — keeps server free of a dependency
// cycle and lets the daemon clear the marker at promotion.
func WithReplica(info func() ReplicaInfo) Option {
	return func(s *Server) { s.replica = info }
}

// SetReplica installs or clears (nil) the replica marker at runtime.
// Promotion calls SetReplica(nil) so the node starts accepting writes.
func (s *Server) SetReplica(info func() ReplicaInfo) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.replica = info
}

// SetJournal installs or replaces the journal, which must not be nil,
// at runtime. Promotion uses it to hand the server the promoted WAL
// journal.
func (s *Server) SetJournal(j Journal) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.journal = j
}

func (s *Server) getJournal() Journal {
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	return s.journal
}

func (s *Server) getReplica() func() ReplicaInfo {
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	return s.replica
}

// replicaGate enforces the replica serving contract around next. With
// no replica marker installed it is a passthrough.
func (s *Server) replicaGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := s.getReplica()
		if info == nil || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		rep := info()
		// Alerts reflect the primary's live detection state — a replica
		// has no streaming engine — so the read is misdirected, not
		// merely stale.
		if r.Method != http.MethodGet || r.URL.Path == alertsPath {
			writeEnvelope(w, r, http.StatusMisdirectedRequest,
				api.NewError(api.CodeNotPrimary,
					"this node is a read replica; send writes to the primary").
					WithPrimary(rep.Primary))
			return
		}
		w.Header().Set(ReplicaLagHeader,
			fmt.Sprintf("records=%d seconds=%.3f", rep.LagRecords, rep.LagSeconds))
		if !rep.Ready {
			writeEnvelope(w, r, http.StatusServiceUnavailable,
				api.NewError(api.CodeReplicaStale,
					"replica is bootstrapping and not yet serving reads").
					WithRetryAfter(1))
			return
		}
		if (rep.MaxLagRecords > 0 && rep.LagRecords > rep.MaxLagRecords) ||
			(rep.MaxLagSeconds > 0 && rep.LagSeconds > rep.MaxLagSeconds) {
			writeEnvelope(w, r, http.StatusServiceUnavailable,
				api.NewError(api.CodeReplicaStale,
					"replica lag %d records / %.3fs exceeds bound %d records / %gs",
					rep.LagRecords, rep.LagSeconds, rep.MaxLagRecords, rep.MaxLagSeconds).
					WithRetryAfter(1))
			return
		}
		next.ServeHTTP(w, r)
	})
}
