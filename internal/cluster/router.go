package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trust"
)

// RouterConfig customizes a Router. Member calls go through one
// http.Client without retries: a router that retries a dead member for
// seconds cannot shed its range promptly.
type RouterConfig struct {
	// MemberTimeout bounds each call to a member, from dialing to
	// reading the body, so a member that accepts a request and never
	// answers fails the call instead of holding it; 0 means no bound.
	MemberTimeout time.Duration
	// ServerOptions is appended to the router's inner Server options
	// (telemetry, timeouts, body caps, admission).
	ServerOptions []server.Option
}

// Router fronts a member cluster behind the exact public v1 surface a
// single daemon serves. It implements server.Backend and
// server.Journal over HTTP fan-out, so the inner server.Server's own
// handlers produce every response but GET /v1/cluster — a one-node
// cluster is byte-for-byte a plain daemon by construction.
//
// Single-object traffic (submit, aggregate) forwards to the keyspace
// owner; trust reads ask the rater's owner and fail over to the rest
// (trust is replicated); cross-object reads scatter to every member
// and fold in the canonical ascending order, so merged answers are
// identical to one core.System's. Maintenance windows run the
// cluster's scan/apply exchange: every member scans its owned range,
// the router folds the evidence exactly as Pipeline.Charge would, and
// broadcasts one merged observation batch that lands every member on
// identical trust state.
//
// A member the router cannot reach fails every read or write that
// needs it with an error wrapping server.ErrUnavailable, which the
// inner handlers shed as a typed 503 (unavailable): the router sheds
// the range rather than answering zero or a partial scatter.
type Router struct {
	table   Table
	hc      *http.Client     // every member call, MemberTimeout bounded
	clients []*server.Client // one per member, epoch pinned
	mux     *http.ServeMux
}

// NewRouter builds the routing tier for table.
func NewRouter(table Table, cfg RouterConfig) (*Router, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	rt := &Router{table: table, hc: &http.Client{Timeout: cfg.MemberTimeout}}
	epoch := strconv.FormatUint(table.Epoch, 10)
	for _, n := range table.Nodes {
		rt.clients = append(rt.clients, server.NewClient(n.URL, rt.hc,
			server.WithHeader(api.ClusterEpochHeader, epoch)))
	}

	opts := []server.Option{
		server.WithJournal(rt),
		server.WithFeatures(api.DiscoveryFeatures{
			StreamIngest: true, Cluster: true, Router: true,
		}),
	}
	opts = append(opts, cfg.ServerOptions...)
	inner, err := server.NewWith(rt, opts...)
	if err != nil {
		return nil, err
	}

	// Only the cluster doc, with its live per-member health, is
	// router-only. Every other route reaches the inner handlers, which
	// call back into the Router's Backend/Journal methods: shared
	// handlers, shared shapes, shared error mapping.
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.Handle("/", inner)
	return rt, nil
}

// ServeHTTP implements http.Handler: the router-wide epoch gate, then
// the router's mux.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if server.CheckEpoch(w, r, rt.table.Epoch) {
		rt.mux.ServeHTTP(w, r)
	}
}

// unavailable wraps a member failure so the inner handlers map it to a
// typed 503: the router sheds the member's keyspace range instead of
// answering from a partial scatter.
func (rt *Router) unavailable(node int, err error) error {
	return fmt.Errorf("%w: node %s: %v", server.ErrUnavailable, rt.table.Nodes[node].URL, err)
}

// ---- server.Backend / server.Journal: mutations ----

// SubmitAll implements server.Backend and server.Journal: the batch is
// split by keyspace owner and forwarded, ascending node order. Members
// journal before acking, so an acked forward is durable.
func (rt *Router) SubmitAll(rs []rating.Rating) error {
	byNode := make(map[int][]api.RatingPayload)
	for _, r := range rs {
		n := rt.table.OwnerOfObject(r.Object)
		byNode[n] = append(byNode[n], api.RatingPayload{
			Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
		})
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if _, err := rt.clients[n].Submit(context.Background(), byNode[n]); err != nil {
			return rt.unavailable(n, err)
		}
	}
	return nil
}

// ProcessWindow implements server.Backend and server.Journal: the
// cluster's scan/apply exchange.
//
// Every member scans its owned objects for the window and returns
// per-(object,rater) evidence — integer counts plus the one float each
// (object,rater) pair contributes, so the fold below replays
// Pipeline.Charge's arithmetic exactly. The router merges the evidence
// ascending by object, folds it into one observation batch, and
// broadcasts the batch to every member (trust is replicated, so all
// members — including ones owning an empty range — take the apply).
//
// Any unreachable member aborts before anything is applied; a failure
// mid-broadcast leaves the cluster mixed, but applies are idempotent
// at window granularity and every ack is durable, so retrying the same
// window converges every member, in memory and on disk.
func (rt *Router) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	ctx := context.Background()
	merged := make([]shard.ObjectEvidence, 0)
	var faux []core.ObjectReport
	for i := range rt.table.Nodes {
		if rt.table.Nodes[i].Empty() {
			continue
		}
		resp, err := rt.clients[i].ClusterScan(ctx, start, end)
		if err != nil {
			return core.ProcessReport{}, rt.unavailable(i, err)
		}
		for _, oe := range resp.Objects {
			ev := shard.ObjectEvidence{
				Object:            rating.ObjectID(oe.Object),
				Considered:        oe.Considered,
				Filtered:          oe.Filtered,
				Windows:           oe.Windows,
				SuspiciousWindows: oe.SuspiciousWindows,
				Degraded:          oe.Degraded,
				Raters:            make([]shard.RaterEvidence, len(oe.Raters)),
			}
			for j, re := range oe.Raters {
				ev.Raters[j] = shard.RaterEvidence{
					Rater: rating.RaterID(re.Rater), N: re.N, Filtered: re.Filtered,
					Suspicious: re.Suspicious, Mass: re.Mass,
				}
			}
			merged = append(merged, ev)
		}
	}
	// Object IDs are disjoint across members (each object has one
	// keyspace owner); sorting restores the oracle's global ascending
	// fold order.
	sort.Slice(merged, func(i, j int) bool { return merged[i].Object < merged[j].Object })
	obs := shard.FoldEvidence(merged)

	applyReq := api.ClusterApplyRequest{
		Start: start, End: end, Observations: SortedObservations(obs),
	}
	for i, c := range rt.clients {
		if _, err := c.ClusterApply(ctx, applyReq); err != nil {
			return core.ProcessReport{}, rt.unavailable(i, err)
		}
	}

	// Rebuild the report shape handleProcess summarizes: object counts
	// are real; the detection windows are placeholders carrying only
	// the counts (total and suspicious) the summary reads.
	for _, ev := range merged {
		or := core.ObjectReport{
			Object:     ev.Object,
			Considered: ev.Considered,
			Filtered:   ev.Filtered,
			Degraded:   ev.Degraded,
		}
		if ev.Windows > 0 {
			or.Detection.Windows = make([]detector.WindowReport, ev.Windows)
			for k := 0; k < ev.SuspiciousWindows; k++ {
				or.Detection.Windows[k].Suspicious = true
			}
		}
		faux = append(faux, or)
	}
	return core.ProcessReport{Start: start, End: end, Objects: faux, Observations: obs}, nil
}

// Restore implements server.Journal: LoadSnapshot through the members'
// own journaled restore path.
func (rt *Router) Restore(r io.Reader) error { return rt.LoadSnapshot(r) }

// ---- server.Backend: single-object reads ----

// Aggregate implements server.Backend: forward to the keyspace owner,
// mapping the typed envelope back to the sentinel errors the inner
// handler classifies.
func (rt *Router) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	n := rt.table.OwnerOfObject(obj)
	resp, err := rt.clients[n].Aggregate(context.Background(), int(obj))
	if err != nil {
		if apiErr, ok := err.(*server.APIError); ok {
			switch apiErr.Code {
			case api.CodeNotFound:
				return core.AggregateResult{}, fmt.Errorf("cluster: %s: %w", apiErr.Message, rating.ErrUnknownObject)
			case api.CodeConflict:
				return core.AggregateResult{}, fmt.Errorf("cluster: %s: %w", apiErr.Message, trust.ErrNoRatings)
			}
		}
		return core.AggregateResult{}, rt.unavailable(n, err)
	}
	return core.AggregateResult{
		Object:   rating.ObjectID(resp.Object),
		Value:    resp.Value,
		Used:     resp.Used,
		Filtered: resp.Filtered,
		FellBack: resp.FellBack,
	}, nil
}

// TrustIn implements server.Backend. Trust is replicated, so any
// member can answer; the rater's keyspace owner is asked first to
// spread load, then the rest. It fails only when no member answers.
func (rt *Router) TrustIn(id rating.RaterID) (float64, error) {
	ctx := context.Background()
	first := rt.table.OwnerOfRater(id)
	var lastErr error
	for k := 0; k < len(rt.clients); k++ {
		n := (first + k) % len(rt.clients)
		v, err := rt.clients[n].Trust(ctx, int(id))
		if err == nil {
			return v, nil
		}
		lastErr = rt.unavailable(n, err)
	}
	return 0, lastErr
}

// ---- server.Backend: cross-member reads ----
//
// A cross-member read needs every member: a partial sum or a partial
// list is a wrong answer, not a degraded one, so any unreachable
// member fails the whole read with ErrUnavailable.

// MaliciousRaters implements server.Backend: it scatters the members'
// disjoint point ranges and merges the ID-sorted slices back into one
// ascending list — exactly the list one trust.Manager would produce.
func (rt *Router) MaliciousRaters() ([]rating.RaterID, error) {
	ctx := context.Background()
	lists := make([][]int, 0, len(rt.clients))
	for i, n := range rt.table.Nodes {
		if n.Empty() {
			continue
		}
		resp, err := rt.clients[i].MaliciousPointRange(ctx, n.Lo, n.Hi)
		if err != nil {
			return nil, rt.unavailable(i, err)
		}
		lists = append(lists, resp.Raters)
	}
	// K-way merge by rater ID: the point ranges are disjoint, so every
	// rater appears in exactly one list, and each list is ID-sorted.
	idx := make([]int, len(lists))
	var out []rating.RaterID
	for {
		best, bestList := 0, -1
		for l, list := range lists {
			if idx[l] >= len(list) {
				continue
			}
			if bestList < 0 || list[idx[l]] < best {
				best, bestList = list[idx[l]], l
			}
		}
		if bestList < 0 {
			return out, nil
		}
		out = append(out, rating.RaterID(best))
		idx[bestList]++
	}
}

// Stats implements server.Backend: rating counts sum across the
// disjoint partitions; the rater and malicious counts and the trust
// distribution come from the replicated trust state, so member 0
// alone computes them.
func (rt *Router) Stats(bounds []float64) (shard.Stats, error) {
	ctx := context.Background()
	var out shard.Stats
	for i, c := range rt.clients {
		var st api.StatsResponse
		var err error
		if i == 0 && len(bounds) > 0 {
			st, err = c.StatsWithBounds(ctx, bounds)
		} else {
			st, err = c.Stats(ctx)
		}
		if err != nil {
			return shard.Stats{}, rt.unavailable(i, err)
		}
		out.Ratings += st.Ratings
		if i == 0 {
			out.Raters, out.Malicious = st.Raters, st.Malicious
			if st.Distribution != nil {
				out.Distribution = st.Distribution.Counts
			}
		}
	}
	return out, nil
}

// ---- server.Backend: snapshots ----

// memberView fetches one member's full snapshot and decodes the
// buffered bytes in place, with one parse.
func (rt *Router) memberView(n int) (core.StateView, error) {
	var buf bytes.Buffer
	if err := rt.clients[n].Snapshot(context.Background(), &buf); err != nil {
		return core.StateView{}, rt.unavailable(n, err)
	}
	var doc core.SnapshotDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return core.StateView{}, fmt.Errorf("core: snapshot decode: %w", err)
	}
	return doc.View()
}

// WriteSnapshot implements server.Backend: the cluster-wide state as
// one snapshot — every member's ratings concatenated in node order
// (each member's slice already carries the store's canonical per-object
// ordering) and the replicated trust records from the first reachable
// member.
func (rt *Router) WriteSnapshot(w io.Writer) error {
	var full core.StateView
	for i, n := range rt.table.Nodes {
		if n.Empty() {
			continue
		}
		v, err := rt.memberView(i)
		if err != nil {
			return err
		}
		full.Ratings = append(full.Ratings, v.Ratings...)
		if full.Records == nil {
			full.Records = v.Records
		}
	}
	if full.Records == nil {
		full.Records = map[rating.RaterID]trust.Record{}
	}
	return full.Encode(w)
}

// LoadSnapshot implements server.Backend: split the snapshot's ratings
// by keyspace owner and restore every member — each gets its owned
// ratings plus the full replicated record set. Members restore through
// their journaled path, so the split state is durable before the call
// returns.
func (rt *Router) LoadSnapshot(r io.Reader) error {
	v, err := core.DecodeSnapshot(r)
	if err != nil {
		return err
	}
	parts := make([][]rating.Rating, len(rt.table.Nodes))
	for _, rr := range v.Ratings {
		n := rt.table.OwnerOfObject(rr.Object)
		parts[n] = append(parts[n], rr)
	}
	ctx := context.Background()
	for i := range rt.table.Nodes {
		part := core.StateView{Ratings: parts[i], Records: v.Records}
		var buf bytes.Buffer
		if err := part.Encode(&buf); err != nil {
			return err
		}
		if err := rt.clients[i].Restore(ctx, &buf); err != nil {
			return rt.unavailable(i, err)
		}
	}
	return nil
}

var (
	_ server.Backend = (*Router)(nil)
	_ server.Journal = (*Router)(nil)
	_ http.Handler   = (*Router)(nil)
)

// handleCluster serves the routing table with live per-member health:
// each member is probed for its own cluster doc, contributing its
// window high-water mark; an unreachable member is reported down, not
// omitted.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	doc := rt.table.Doc(-1)
	for i := range rt.table.Nodes {
		nodeDoc, err := rt.fetchClusterDoc(i)
		if err != nil {
			doc.Nodes[i].Status = "down"
			continue
		}
		doc.Nodes[i].Status = "ok"
		for _, n := range nodeDoc.Nodes {
			if n.Self {
				doc.Nodes[i].WindowEnd = n.WindowEnd
			}
		}
	}
	api.WriteJSON(w, r, http.StatusOK, doc)
}

// fetchClusterDoc probes one member's GET /v1/cluster. The probe is
// not pinned to the router's epoch: a member on another epoch would
// refuse a pinned probe and be reported down, where this way it shows
// its own doc.
func (rt *Router) fetchClusterDoc(n int) (api.ClusterResponse, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
		rt.table.Nodes[n].URL+"/v1/cluster", nil)
	if err != nil {
		return api.ClusterResponse{}, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return api.ClusterResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.ClusterResponse{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var doc api.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return api.ClusterResponse{}, err
	}
	return doc, nil
}
