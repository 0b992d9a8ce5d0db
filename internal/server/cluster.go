package server

// Cluster-member serving: a node in a partitioned cluster fronts the
// same Server as a standalone daemon, but installs a ClusterView that
// scopes it to its owned keyspace range. Requests for objects outside
// the range are refused with a typed 421 (wrong_node) envelope naming
// the owner — the typed client follows it, capped hops — and requests
// pinned to a different routing-table epoch (X-Cluster-Epoch) get a
// typed 409 (stale_epoch) instead of a silently misrouted answer.
// Maintenance windows are refused outright: a member scanning only its
// own range must never charge trust locally (trust is replicated
// cluster-wide), so windows run through the router's scan/apply
// orchestration (internal/cluster).

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/rating"
)

// ClusterView is the server's window onto cluster membership. It is
// declared here — rather than importing the cluster package — so the
// server stays free of a dependency cycle; internal/cluster.Member
// implements it.
type ClusterView interface {
	// Epoch is the routing table's version; requests pinning another
	// epoch are refused with stale_epoch.
	Epoch() uint64
	// OwnsObject reports whether this node owns the object's keyspace
	// point.
	OwnsObject(obj rating.ObjectID) bool
	// OwnerURL names the base URL of the node owning the object.
	OwnerURL(obj rating.ObjectID) string
	// Doc renders the membership document for GET /v1/cluster.
	Doc() api.ClusterResponse
}

// WithCluster scopes the server to a cluster member's keyspace range
// for its whole lifetime.
func WithCluster(view ClusterView) Option {
	return func(s *Server) { s.cluster = view }
}

// WithFeatures overrides the discovery document's feature flags; the
// daemon sets them once its optional subsystems are wired.
func WithFeatures(f api.DiscoveryFeatures) Option {
	return func(s *Server) { s.features = f }
}

// stampVersion marks every response with the contract major version,
// so clients can detect a surface change before decoding. It sits at
// the outermost layer: headers set here survive http.TimeoutHandler's
// 503 cut and the panic-recovery 500.
func stampVersion(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, api.Version)
		next.ServeHTTP(w, r)
	})
}

// CheckEpoch enforces X-Cluster-Epoch pinning for a node whose routing
// table is at epoch have, and reports whether the request may proceed.
// A pin on another epoch is refused with a typed 409 (stale_epoch), so
// a router holding a stale table never silently misroutes; a malformed
// pin gets a 400; an unpinned request passes. The cluster-internal
// routes that call it mount outside the server's middleware, so the
// refusal must stamp X-Api-Version itself, as api.WriteJSON does.
func CheckEpoch(w http.ResponseWriter, r *http.Request, have uint64) bool {
	pinned := r.Header.Get(api.ClusterEpochHeader)
	if pinned == "" {
		return true
	}
	epoch, err := strconv.ParseUint(pinned, 10, 64)
	status := http.StatusConflict
	var e *api.Error
	switch {
	case err != nil:
		status = http.StatusBadRequest
		e = api.NewError(api.CodeBadRequest,
			"%s %q: must be a non-negative integer", api.ClusterEpochHeader, pinned)
	case epoch != have:
		e = api.NewError(api.CodeStaleEpoch,
			"request pinned cluster epoch %d but this node's table is epoch %d; refresh from GET /v1/cluster",
			epoch, have)
	default:
		return true
	}
	api.WriteJSON(w, r, status, e)
	return false
}

// clusterGate applies CheckEpoch on a cluster member. With no cluster
// view installed the header is ignored (a standalone daemon has no
// epoch to disagree with).
func (s *Server) clusterGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cluster != nil && !CheckEpoch(w, r, s.cluster.Epoch()) {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// checkOwnership refuses requests for objects outside the member's
// range with a typed wrong_node envelope naming the owner. A nil view
// (standalone daemon) owns everything. Returns false when the request
// was refused.
func (s *Server) checkOwnership(w http.ResponseWriter, r *http.Request, obj rating.ObjectID) bool {
	if s.cluster == nil || s.cluster.OwnsObject(obj) {
		return true
	}
	api.WriteJSON(w, r, http.StatusMisdirectedRequest,
		api.NewError(api.CodeWrongNode,
			"object %d is owned by another node", obj).
			WithOwner(s.cluster.OwnerURL(obj)))
	return false
}

// handleCluster serves the membership document. On a standalone
// daemon the route exists (it is part of v1) but answers not_found.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorCode(w, r, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("this node is not a cluster member"))
		return
	}
	api.WriteJSON(w, r, http.StatusOK, s.cluster.Doc())
}

// v1Routes is the discovery document's route list — the full v1
// surface in registration order.
var v1Routes = []string{
	"GET /v1",
	"POST /v1/ratings",
	"POST /v1/ratings:stream",
	"POST /v1/process",
	"GET /v1/objects/{id}/aggregate",
	"GET /v1/raters/{id}/trust",
	"GET /v1/malicious",
	"GET /v1/stats",
	"GET /v1/alerts",
	"GET /v1/cluster",
	"GET /v1/snapshot",
	"PUT /v1/snapshot",
	"GET /healthz",
}

// handleDiscovery serves GET /v1: the contract version, the route
// list, this node's request limits, and its feature flags.
func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, r, http.StatusOK, api.DiscoveryResponse{
		Version: api.Version,
		Routes:  v1Routes,
		Limits: api.DiscoveryLimits{
			MaxBodyBytes:          s.maxBody,
			MaxStreamLineBytes:    maxStreamLineBytes,
			RequestTimeoutSeconds: s.reqTimeout.Seconds(),
		},
		Features: s.features,
	})
}
