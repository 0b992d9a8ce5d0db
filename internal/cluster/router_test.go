package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// ownedBy returns an object ID whose keyspace owner is node n.
func ownedBy(t *testing.T, table Table, n int) rating.ObjectID {
	t.Helper()
	for id := 0; id < 1_000_000; id++ {
		if table.OwnerOfObject(rating.ObjectID(id)) == n {
			return rating.ObjectID(id)
		}
	}
	t.Fatalf("no object owned by node %d in 1e6 IDs", n)
	return 0
}

// TestWrongNodeFollow: a client pointed at the wrong member gets the
// typed 421 carrying the owner's URL and transparently re-issues the
// call there.
func TestWrongNodeFollow(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	obj := ownedBy(t, tc.table, 1)

	// The client deliberately talks to member 0, which does not own obj.
	c := server.NewClient(tc.members[0].url, nil)
	n, err := c.Submit(context.Background(), []api.RatingPayload{
		{Rater: 1, Object: int(obj), Value: 0.5, Time: 1},
	})
	if err != nil {
		t.Fatalf("submit via wrong node: %v", err)
	}
	if n != 1 {
		t.Fatalf("accepted %d", n)
	}
	// The rating landed on the owner, not the node the client dialed.
	if got := tc.members[1].eng.Len(); got != 1 {
		t.Fatalf("owner stores %d ratings, want 1", got)
	}
	if got := tc.members[0].eng.Len(); got != 0 {
		t.Fatalf("wrong node stores %d ratings, want 0", got)
	}
}

// TestWrongNodeEnvelope pins the wire shape: typed code, owner URL,
// echoed request ID, 421 status.
func TestWrongNodeEnvelope(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	obj := ownedBy(t, tc.table, 1)

	body := fmt.Sprintf(`[{"rater":1,"object":%d,"value":0.5,"time":1}]`, obj)
	req, _ := http.NewRequest(http.MethodPost, tc.members[0].url+"/v1/ratings", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, "req-421")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want 421", resp.StatusCode)
	}
	if v := resp.Header.Get(api.VersionHeader); v != api.Version {
		t.Fatalf("%s = %q", api.VersionHeader, v)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeWrongNode {
		t.Fatalf("code %q", e.Code)
	}
	if e.Owner != tc.members[1].url {
		t.Fatalf("owner %q, want %q", e.Owner, tc.members[1].url)
	}
	if e.RequestID != "req-421" {
		t.Fatalf("request_id %q", e.RequestID)
	}
}

// pingPongView claims every object is owned elsewhere — the
// pathological routing loop the client's hop cap exists for.
type pingPongView struct{ owner string }

func (v pingPongView) Epoch() uint64                   { return 1 }
func (v pingPongView) OwnsObject(rating.ObjectID) bool { return false }
func (v pingPongView) OwnerURL(rating.ObjectID) string { return v.owner }
func (v pingPongView) Doc() api.ClusterResponse        { return api.ClusterResponse{Epoch: 1} }

func TestWrongNodeHopCap(t *testing.T) {
	// Two servers, each insisting the other is the owner.
	mk := func() (*server.Server, *httptest.Server) {
		srv, err := server.New(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		return srv, hs
	}
	srvA, hsA := mk()
	srvB, hsB := mk()
	srvA.SetCluster(pingPongView{owner: hsB.URL})
	srvB.SetCluster(pingPongView{owner: hsA.URL})

	c := server.NewClient(hsA.URL, nil)
	_, err := c.Submit(context.Background(), []api.RatingPayload{
		{Rater: 1, Object: 5, Value: 0.5, Time: 1},
	})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeWrongNode {
		t.Fatalf("want terminal wrong_node after hop cap, got %v", err)
	}
}

// TestStaleEpochPinning: a request pinning the wrong epoch is refused
// with the typed 409 on members and on the router; pinning the live
// epoch passes.
func TestStaleEpochPinning(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	for _, base := range []string{tc.members[0].url, tc.front.URL} {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
		req.Header.Set(api.ClusterEpochHeader, "99")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || e.Code != api.CodeStaleEpoch {
			t.Fatalf("%s: status %d code %q, want 409 stale_epoch", base, resp.StatusCode, e.Code)
		}

		req, _ = http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
		req.Header.Set(api.ClusterEpochHeader, "1")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: pinned current epoch refused with %d", base, resp.StatusCode)
		}

		req, _ = http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
		req.Header.Set(api.ClusterEpochHeader, "not-a-number")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: garbage epoch answered %d, want 400", base, resp.StatusCode)
		}
	}
}

// TestRouterShedsDownNode: with one member unreachable the router
// sheds exactly that member's range — typed 503s for requests needing
// it, normal service for everything else — and recovers when the
// member returns.
func TestRouterShedsDownNode(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	obj0, obj1 := ownedBy(t, tc.table, 0), ownedBy(t, tc.table, 1)
	c := server.NewClient(tc.front.URL, nil)
	ctx := context.Background()

	submit := func(obj rating.ObjectID, tm float64) error {
		_, err := c.Submit(ctx, []api.RatingPayload{{Rater: 1, Object: int(obj), Value: 0.5, Time: tm}})
		return err
	}
	if err := submit(obj0, 1); err != nil {
		t.Fatal(err)
	}
	if err := submit(obj1, 2); err != nil {
		t.Fatal(err)
	}

	tc.members[1].down()

	// Writes into the dead range shed with the typed 503.
	err := submit(obj1, 3)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("submit into dead range: want typed 503 unavailable, got %v", err)
	}
	// The live range keeps serving.
	if err := submit(obj0, 4); err != nil {
		t.Fatalf("submit into live range while peer down: %v", err)
	}
	// Aggregate owned by the dead member sheds; live member's serves.
	if _, err := c.Aggregate(ctx, int(obj1)); err == nil {
		t.Fatal("aggregate on dead range should shed")
	} else if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("aggregate on dead range: want 503, got %v", err)
	}
	// Scatter reads need every member: they shed.
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("stats should shed with a member down")
	}
	if _, err := c.Malicious(ctx); err == nil {
		t.Fatal("malicious should shed with a member down")
	}
	// Trust is replicated: the router falls over to the live member.
	if _, err := c.Trust(ctx, 1); err != nil {
		t.Fatalf("trust read with replicated state: %v", err)
	}
	// Windows refuse to run on a partial cluster.
	if _, err := c.Process(ctx, 0, 30); err == nil {
		t.Fatal("process should refuse with a member down")
	}
	// The cluster doc reports the outage instead of hiding it.
	doc := fetchRouterDoc(t, tc.front.URL)
	if doc.Nodes[0].Status != "ok" || doc.Nodes[1].Status != "down" {
		t.Fatalf("doc statuses %q/%q, want ok/down", doc.Nodes[0].Status, doc.Nodes[1].Status)
	}

	tc.members[1].up()
	if err := submit(obj1, 5); err != nil {
		t.Fatalf("submit after member recovery: %v", err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats after member recovery: %v", err)
	}
	doc = fetchRouterDoc(t, tc.front.URL)
	if doc.Nodes[1].Status != "ok" {
		t.Fatalf("doc status %q after recovery", doc.Nodes[1].Status)
	}
}

func fetchRouterDoc(t *testing.T, base string) api.ClusterResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	var doc api.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSingleNodeClusterMatchesPlainDaemon drives identical requests
// through a plain (non-cluster) server and a one-node cluster's router
// and requires byte-identical response bodies — the router's public
// surface IS the daemon's.
func TestSingleNodeClusterMatchesPlainDaemon(t *testing.T) {
	w := shardtest.Workload{Seed: 55, Months: 2, PerMonth: 200}

	eng, err := shard.NewEngine(core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	plainSrv, err := server.NewWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	plain := httptest.NewServer(plainSrv)
	defer plain.Close()

	tc := newTestCluster(t, 1, 2)

	// Drive the same workload through both fronts via HTTP.
	for _, base := range []string{plain.URL, tc.front.URL} {
		c := server.NewClient(base, nil)
		for m, month := range w.Generate() {
			payloads := make([]api.RatingPayload, len(month.Ratings))
			for i, r := range month.Ratings {
				payloads[i] = api.RatingPayload{
					Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
				}
			}
			if _, err := c.Submit(context.Background(), payloads); err != nil {
				t.Fatalf("%s month %d submit: %v", base, m, err)
			}
			if _, err := c.Process(context.Background(), month.Start, month.End); err != nil {
				t.Fatalf("%s month %d process: %v", base, m, err)
			}
		}
	}

	get := func(base, path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	paths := []string{
		"/v1/stats",
		"/v1/stats?bounds=0.2,0.5,0.9",
		"/v1/malicious",
		"/v1/malicious?limit=2&offset=0",
		"/v1/malicious?limit=2&offset=2",
		"/v1/malicious?offset=1",
		"/v1/malicious?limit=-1", // error envelopes must match too
		"/v1/stats?bounds=nope",
	}
	for obj := 0; obj < w.Objects; obj++ {
		paths = append(paths, fmt.Sprintf("/v1/objects/%d/aggregate", obj))
	}
	for id := 0; id < 25; id++ {
		paths = append(paths, fmt.Sprintf("/v1/raters/%d/trust", id))
	}
	for _, p := range paths {
		plainStatus, plainBody := get(plain.URL, p)
		clusterStatus, clusterBody := get(tc.front.URL, p)
		if plainStatus != clusterStatus || plainBody != clusterBody {
			t.Errorf("GET %s diverged:\nplain   %d %s\ncluster %d %s",
				p, plainStatus, plainBody, clusterStatus, clusterBody)
		}
	}
}

// TestMergedPaginationAcrossNodes: pagination over the merged
// malicious list must behave as if one system held the whole list,
// with pages spanning member boundaries seamlessly.
func TestMergedPaginationAcrossNodes(t *testing.T) {
	w := shardtest.Workload{Seed: 91, Months: 2, PerMonth: 250, Malicious: 6}
	tc := newTestCluster(t, 3, 2)
	if _, err := shardtest.Run(tc.router, w); err != nil {
		t.Fatal(err)
	}

	c := server.NewClient(tc.front.URL, nil)
	ctx := context.Background()
	full, err := c.Malicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("workload produced only %d malicious raters; need >=3 for boundary pages", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i-1] >= full[i] {
			t.Fatalf("merged list not strictly ascending: %v", full)
		}
	}
	// The malicious raters' points span more than one member range —
	// otherwise this test wouldn't cross a boundary.
	owners := map[int]bool{}
	for _, id := range full {
		owners[tc.table.OwnerOfRater(rating.RaterID(id))] = true
	}
	if len(owners) < 2 {
		t.Skipf("all %d malicious raters landed on one member; seed needs adjusting", len(full))
	}

	// Every (offset, limit) window equals the corresponding slice of
	// the full merged list, and totals are cluster-wide.
	for offset := 0; offset <= len(full)+1; offset++ {
		for _, limit := range []int{1, 2, len(full)} {
			page, err := c.MaliciousPage(ctx, offset, limit)
			if err != nil {
				t.Fatal(err)
			}
			want := []int{}
			if offset <= len(full) {
				want = full[offset:]
				if limit < len(want) {
					want = want[:limit]
				}
			}
			if len(page.Raters) != len(want) {
				t.Fatalf("offset=%d limit=%d: got %v want %v", offset, limit, page.Raters, want)
			}
			for i := range want {
				if page.Raters[i] != want[i] {
					t.Fatalf("offset=%d limit=%d: got %v want %v", offset, limit, page.Raters, want)
				}
			}
			if page.Page == nil || page.Page.Total != len(full) {
				t.Fatalf("offset=%d limit=%d: page meta %+v, want total %d", offset, limit, page.Page, len(full))
			}
		}
	}
}

// TestRouterDiscovery: the router's /v1 document advertises the
// cluster features; a member's advertises cluster membership without
// the router flag.
func TestRouterDiscovery(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	var doc api.DiscoveryResponse
	resp, err := http.Get(tc.front.URL + "/v1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != api.Version {
		t.Fatalf("version %q", doc.Version)
	}
	if !doc.Features.Cluster || !doc.Features.Router || !doc.Features.StreamIngest {
		t.Fatalf("router features %+v", doc.Features)
	}
	if len(doc.Routes) == 0 {
		t.Fatal("no routes advertised")
	}

	resp2, err := http.Get(tc.members[0].url + "/v1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var mdoc api.DiscoveryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&mdoc); err != nil {
		t.Fatal(err)
	}
	if !mdoc.Features.Cluster || mdoc.Features.Router {
		t.Fatalf("member features %+v", mdoc.Features)
	}
}

// TestMemberRefusesLocalProcess: a cluster member must never run a
// maintenance window locally — its scan covers only its owned range.
func TestMemberRefusesLocalProcess(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	c := server.NewClient(tc.members[0].url, nil)
	_, err := c.Process(context.Background(), 0, 30)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != api.CodeConflict {
		t.Fatalf("member-local process: want typed 409 conflict, got %v", err)
	}
}
