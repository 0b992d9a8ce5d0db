package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/api"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trust"
)

// Snapshotter makes a member's applied window durable before it is
// acked: the daemon's shard journal implements it (shard snapshots
// carry the full global trust record set, so a snapshot after
// ApplyObservations persists the merged window without ever writing a
// window record into a member WAL — replaying one locally would
// recompute the window from this node's objects only and diverge).
type Snapshotter interface {
	Snapshot() error
}

// Member is one node's view of the cluster: the shared routing table,
// this node's index in it, and the engine the scan/apply exchange
// drives. It implements server.ClusterView, so installing it on the
// node's Server scopes the public surface to the owned range. An
// apply changes trust through the engine alone, whose reads compute
// from current state.
type Member struct {
	table Table
	self  int
	eng   *shard.Engine

	// snap, when set, is called before every apply is acked, a
	// re-delivered window's included.
	snap Snapshotter
}

// NewMember builds the member for selfURL under table, making each
// apply durable through snap before it is acked; a member without
// durable state passes nil.
func NewMember(table Table, selfURL string, eng *shard.Engine, snap Snapshotter) (*Member, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	self := table.IndexOf(selfURL)
	if self < 0 {
		return nil, fmt.Errorf("cluster: self URL %q is not in the table", selfURL)
	}
	if eng == nil {
		return nil, fmt.Errorf("cluster: nil engine")
	}
	return &Member{table: table, self: self, eng: eng, snap: snap}, nil
}

// Table returns the member's routing table.
func (m *Member) Table() Table { return m.table }

// Epoch implements server.ClusterView.
func (m *Member) Epoch() uint64 { return m.table.Epoch }

// OwnsObject implements server.ClusterView.
func (m *Member) OwnsObject(obj rating.ObjectID) bool {
	return m.table.OwnerOfObject(obj) == m.self
}

// OwnerURL implements server.ClusterView.
func (m *Member) OwnerURL(obj rating.ObjectID) string {
	return m.table.Nodes[m.table.OwnerOfObject(obj)].URL
}

// Doc implements server.ClusterView: the table with this node's row
// marked and carrying its window high-water mark.
func (m *Member) Doc() api.ClusterResponse {
	doc := m.table.Doc(m.self)
	doc.Nodes[m.self].WindowEnd = m.eng.LastWindowEnd()
	return doc
}

var _ server.ClusterView = (*Member)(nil)

// Routes mounts the cluster-internal exchange on mux, ahead of the
// public API catch-all:
//
//	POST /v1/cluster/scan    scan owned objects for one window
//	POST /v1/cluster/apply   apply the router's merged observations
func (m *Member) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/scan", m.handleScan)
	mux.HandleFunc("POST /v1/cluster/apply", m.handleApply)
}

func (m *Member) handleScan(w http.ResponseWriter, r *http.Request) {
	if !server.CheckEpoch(w, r, m.table.Epoch) {
		return
	}
	var req api.ClusterScanRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"decode scan request: %v", err))
		return
	}
	if req.End <= req.Start {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"scan window [%g,%g)", req.Start, req.End))
		return
	}
	evidence, err := m.eng.ScanWindow(req.Start, req.End)
	if err != nil {
		api.WriteJSON(w, r, http.StatusConflict, api.NewError(api.CodeConflict, "%v", err))
		return
	}
	resp := api.ClusterScanResponse{Objects: make([]api.ObjectEvidence, len(evidence))}
	for i, ev := range evidence {
		oe := api.ObjectEvidence{
			Object:            int(ev.Object),
			Considered:        ev.Considered,
			Filtered:          ev.Filtered,
			Windows:           ev.Windows,
			SuspiciousWindows: ev.SuspiciousWindows,
			Degraded:          ev.Degraded,
			Raters:            make([]api.RaterEvidence, len(ev.Raters)),
		}
		for j, re := range ev.Raters {
			oe.Raters[j] = api.RaterEvidence{
				Rater: int(re.Rater), N: re.N, Filtered: re.Filtered,
				Suspicious: re.Suspicious, Mass: re.Mass,
			}
		}
		resp.Objects[i] = oe
	}
	api.WriteJSON(w, r, http.StatusOK, resp)
}

func (m *Member) handleApply(w http.ResponseWriter, r *http.Request) {
	if !server.CheckEpoch(w, r, m.table.Epoch) {
		return
	}
	var req api.ClusterApplyRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"decode apply request: %v", err))
		return
	}
	if req.End <= req.Start {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"apply window [%g,%g)", req.Start, req.End))
		return
	}
	// Idempotence at window granularity: a router retrying a partially
	// broadcast apply must not double-charge nodes that already took
	// it, so a window at or below the high-water mark (which snapshots
	// carry across restarts) skips the charge — but not the snapshot.
	if req.End > m.eng.LastWindowEnd() {
		obs := make(map[rating.RaterID]trust.Observation, len(req.Observations))
		for _, re := range req.Observations {
			obs[rating.RaterID(re.Rater)] = trust.Observation{
				N: re.N, Filtered: re.Filtered, Suspicious: re.Suspicious,
				SuspicionMass: re.Mass,
			}
		}
		if err := m.eng.ApplyObservations(obs, req.End); err != nil {
			api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest, "%v", err))
			return
		}
	}
	if m.snap != nil {
		// The charge must be durable before every ack, a re-delivery's
		// included: an earlier attempt may have charged the window and
		// then failed to persist it. A member WAL never holds a window
		// record (replaying one here would refold the window from local
		// objects only), so the snapshot is what carries the applied
		// trust across a crash.
		if err := m.snap.Snapshot(); err != nil {
			api.WriteJSON(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable,
				"apply snapshot: %v", err))
			return
		}
	}
	api.WriteJSON(w, r, http.StatusOK, api.ClusterApplyResponse{
		Raters:    len(req.Observations),
		WindowEnd: m.eng.LastWindowEnd(),
	})
}

// SortedObservations renders a folded observation map as ascending
// wire evidence — the canonical apply-request order.
func SortedObservations(obs map[rating.RaterID]trust.Observation) []api.RaterEvidence {
	ids := make([]rating.RaterID, 0, len(obs))
	for id := range obs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]api.RaterEvidence, len(ids))
	for i, id := range ids {
		o := obs[id]
		out[i] = api.RaterEvidence{
			Rater: int(id), N: o.N, Filtered: o.Filtered,
			Suspicious: o.Suspicious, Mass: o.SuspicionMass,
		}
	}
	return out
}
