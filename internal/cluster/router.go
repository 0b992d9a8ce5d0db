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

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trust"
)

// RouterConfig customizes a Router. Member calls go through
// http.DefaultClient without retries: a router that retries a dead
// member for seconds cannot shed its range promptly.
type RouterConfig struct {
	// ServerOptions is appended to the router's inner Server options
	// (telemetry, timeouts, body caps, admission).
	ServerOptions []server.Option
}

// Router fronts a member cluster behind the exact public v1 surface a
// single daemon serves. It implements server.Backend and
// server.Journal over HTTP fan-out, so the inner server.Server's own
// handlers produce the responses — a one-node cluster is byte-for-byte
// a plain daemon.
//
// Single-object traffic (submit, aggregate) forwards to the keyspace
// owner; cross-object reads scatter to every member and fold in the
// canonical ascending order, so merged answers are identical to one
// core.System's. Maintenance windows run the cluster's scan/apply
// exchange: every member scans its owned range, the router folds the
// evidence exactly as Pipeline.Charge would, and broadcasts one merged
// observation batch that lands every member on identical trust state.
//
// A member the router cannot reach surfaces as a typed 503
// (unavailable) on requests needing that member's range — the router
// sheds the range rather than serving wrong answers from a partial
// scatter.
type Router struct {
	table   Table
	clients []*server.Client // one per member, epoch pinned

	inner *server.Server
	mux   *http.ServeMux
}

// NewRouter builds the routing tier for table.
func NewRouter(table Table, cfg RouterConfig) (*Router, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	rt := &Router{table: table}
	epoch := strconv.FormatUint(table.Epoch, 10)
	for _, n := range table.Nodes {
		rt.clients = append(rt.clients, server.NewClient(n.URL, http.DefaultClient,
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
	rt.inner = inner

	// Routes needing genuine scatter-gather or cluster-aware error
	// control are intercepted ahead of the inner server; everything
	// else (submit, stream, process, aggregate, snapshot, discovery)
	// reaches the inner handlers, which call back into the Router's
	// Backend/Journal methods — shared handlers, shared shapes.
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/malicious", rt.handleMalicious)
	rt.mux.HandleFunc("GET /v1/raters/{id}/trust", rt.handleTrust)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.Handle("/", inner)
	return rt, nil
}

// ServeHTTP implements http.Handler: the router-wide epoch gate, then
// the intercept mux.
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
// at window granularity, so retrying the same window converges every
// member.
func (rt *Router) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	ctx := context.Background()
	merged := make([]shard.ObjectEvidence, 0)
	var faux []core.ObjectReport
	for i := range rt.table.Nodes {
		if rt.table.Nodes[i].Empty() {
			continue
		}
		var resp api.ClusterScanResponse
		err := rt.postJSON(ctx, i, "/v1/cluster/scan",
			api.ClusterScanRequest{Start: start, End: end}, &resp)
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
	for i := range rt.table.Nodes {
		var resp api.ClusterApplyResponse
		if err := rt.postJSON(ctx, i, "/v1/cluster/apply", applyReq, &resp); err != nil {
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
// spread load, then the rest. An unreachable cluster reports zero —
// the HTTP route intercepts above this method and sheds with a typed
// 503 instead.
func (rt *Router) TrustIn(id rating.RaterID) float64 {
	v, err := rt.trustIn(id)
	if err != nil {
		return 0
	}
	return v
}

func (rt *Router) trustIn(id rating.RaterID) (float64, error) {
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

// statsFrom fetches one member's stats.
func (rt *Router) statsFrom(n int, bounds []float64) (api.StatsResponse, error) {
	ctx := context.Background()
	if len(bounds) > 0 {
		return rt.clients[n].StatsWithBounds(ctx, bounds)
	}
	return rt.clients[n].Stats(ctx)
}

// Len implements server.Backend: the cluster-wide rating count, the
// sum over members. Best-effort (unreachable members count zero); the
// stats route intercepts above this and sheds instead.
func (rt *Router) Len() int {
	total := 0
	for i := range rt.clients {
		if st, err := rt.statsFrom(i, nil); err == nil {
			total += st.Ratings
		}
	}
	return total
}

// RaterCount implements server.Backend; trust is replicated, any
// member knows. Best-effort zero when nothing is reachable.
func (rt *Router) RaterCount() int {
	for i := range rt.clients {
		if st, err := rt.statsFrom(i, nil); err == nil {
			return st.Raters
		}
	}
	return 0
}

// MaliciousRaters implements server.Backend via the point-range
// scatter; best-effort nil when a member is unreachable (the HTTP
// route intercepts above this and sheds instead).
func (rt *Router) MaliciousRaters() []rating.RaterID {
	ids, err := rt.mergedMalicious()
	if err != nil {
		return nil
	}
	return ids
}

// mergedMalicious scatters the members' disjoint point ranges and
// merges the ID-sorted slices back into one ascending list — exactly
// the list one trust.Manager would produce.
func (rt *Router) mergedMalicious() ([]rating.RaterID, error) {
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

// TrustDistribution implements server.Backend; any member answers for
// the replicated trust state.
func (rt *Router) TrustDistribution(bounds []float64) []int {
	for i := range rt.clients {
		if st, err := rt.statsFrom(i, bounds); err == nil && st.Distribution != nil {
			return st.Distribution.Counts
		}
	}
	return nil
}

// ---- server.Backend: snapshots ----

// memberView fetches and decodes one member's full snapshot.
func (rt *Router) memberView(n int) (core.StateView, error) {
	var buf bytes.Buffer
	if err := rt.clients[n].Snapshot(context.Background(), &buf); err != nil {
		return core.StateView{}, rt.unavailable(n, err)
	}
	return core.DecodeSnapshot(&buf)
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

// ---- intercepted routes ----

// handleStats merges member stats: rating counts sum across the
// disjoint partitions; rater counts, malicious totals and the trust
// distribution come from the replicated trust state (the first
// member). Any unreachable member sheds the whole answer — a partial
// sum is a wrong answer, not a degraded one.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	var bounds []float64
	if boundsS := r.URL.Query().Get("bounds"); boundsS != "" {
		var err error
		if bounds, err = server.ParseBounds(boundsS); err != nil {
			writeErr(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest, "%v", err))
			return
		}
	}
	resp := api.StatsResponse{}
	for i := range rt.table.Nodes {
		// Only the first member computes the distribution; the others
		// contribute just their partition's rating count.
		nodeBounds := bounds
		if i != 0 {
			nodeBounds = nil
		}
		st, err := rt.statsFrom(i, nodeBounds)
		if err != nil {
			writeErr(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable,
				"node %s: %v", rt.table.Nodes[i].URL, err))
			return
		}
		resp.Ratings += st.Ratings
		if i == 0 {
			resp.Raters, resp.Malicious = st.Raters, st.Malicious
			resp.Distribution = st.Distribution
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMalicious scatters the members' point ranges and serves the
// merged ascending list with the same pagination contract as a single
// daemon — parameter parsing and envelope shapes included.
func (rt *Router) handleMalicious(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limitS, offsetS := q.Get("limit"), q.Get("offset")
	paginated := limitS != "" || offsetS != ""
	limit, offset := 0, 0
	var err error
	if limitS != "" {
		if limit, err = strconv.Atoi(limitS); err != nil || limit < 0 {
			writeErr(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
				"limit %q: must be a non-negative integer", limitS))
			return
		}
	}
	if offsetS != "" {
		if offset, err = strconv.Atoi(offsetS); err != nil || offset < 0 {
			writeErr(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
				"offset %q: must be a non-negative integer", offsetS))
			return
		}
	}

	ids, err := rt.mergedMalicious()
	if err != nil {
		writeErr(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable, "%v", err))
		return
	}
	total := len(ids)
	page := ids
	if paginated {
		if offset > len(page) {
			page = nil
		} else {
			page = page[offset:]
		}
		if limit > 0 && limit < len(page) {
			page = page[:limit]
		}
	}
	resp := api.MaliciousResponse{Raters: make([]int, 0, len(page))}
	for _, id := range page {
		resp.Raters = append(resp.Raters, int(id))
	}
	if paginated {
		resp.Page = &api.Page{Total: total, Offset: offset, Limit: limit}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrust answers a rater's trust from any reachable member
// (replicated state), shedding with a typed 503 only when the whole
// cluster is unreachable.
func (rt *Router) handleTrust(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest, "rater id: %v", err))
		return
	}
	v, err := rt.trustIn(rating.RaterID(id))
	if err != nil {
		writeErr(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.TrustResponse{Rater: id, Trust: v})
}

// handleCluster serves the routing table with live per-member health:
// each member is probed for its own cluster doc, contributing its
// window high-water mark; an unreachable member is reported down, not
// omitted.
func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
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
	writeJSON(w, http.StatusOK, doc)
}

// fetchClusterDoc probes one member's GET /v1/cluster.
func (rt *Router) fetchClusterDoc(n int) (api.ClusterResponse, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
		rt.table.Nodes[n].URL+"/v1/cluster", nil)
	if err != nil {
		return api.ClusterResponse{}, err
	}
	resp, err := http.DefaultClient.Do(req)
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

// postJSON is the cluster-internal exchange (scan/apply): typed
// clients cover the public surface only, so these two routes speak
// raw JSON with the same epoch pinning.
func (rt *Router) postJSON(ctx context.Context, n int, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		rt.table.Nodes[n].URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ClusterEpochHeader, strconv.FormatUint(rt.table.Epoch, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope api.Error
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &envelope) == nil && envelope.Code != "" {
			return fmt.Errorf("%s: status %d (%s): %s", path, resp.StatusCode, envelope.Code, envelope.Message)
		}
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
