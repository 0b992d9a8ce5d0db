package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// routed drives a router as a shardtest.System; a read the router
// fails fails the test. No v1 route serves the whole trust map, so
// TrustSnapshot takes the rater set from one member's engine (trust is
// replicated) and reads every value through the router's per-rater
// trust path.
type routed struct {
	*cluster.Router
	raters *shard.Engine
	t      testing.TB
}

func (r routed) TrustSnapshot() map[rating.RaterID]float64 {
	r.t.Helper()
	snap := r.raters.TrustSnapshot()
	for id := range snap {
		v, err := r.TrustIn(id)
		if err != nil {
			r.t.Fatalf("trust of rater %d: %v", id, err)
		}
		snap[id] = v
	}
	return snap
}

// Len is the cluster-wide rating count from the router's Stats.
func (r routed) Len() int {
	r.t.Helper()
	st, err := r.Stats(nil)
	if err != nil {
		r.t.Fatalf("stats: %v", err)
	}
	return st.Ratings
}

// clusterMemberProc is one member "process": the daemon newMember
// builds, behind an httptest server whose URL survives kills. kill()
// aborts every request and abandons the daemon without its final
// snapshot — a SIGKILL, not a drain — and start() on the same WAL dir
// is the restart that must recover every acked write.
type clusterMemberProc struct {
	t       *testing.T
	dir     string
	url     string
	members string // the -cluster list
	shards  int
	handler atomic.Pointer[http.Handler]
	ts      *httptest.Server
	d       *daemon
}

func newClusterMemberProc(t *testing.T, shards int) *clusterMemberProc {
	t.Helper()
	p := &clusterMemberProc{t: t, dir: t.TempDir(), shards: shards}
	var dead http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	p.handler.Store(&dead)
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*p.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(p.ts.Close)
	p.url = p.ts.URL
	return p
}

func (p *clusterMemberProc) start() {
	p.t.Helper()
	p.d = build(p.t, newMember, walArgs(p.dir, p.shards, "-cluster", p.members, "-cluster-self", p.url)...)
	p.handler.Store(&p.d.handler)
}

func (p *clusterMemberProc) kill() {
	var dead http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	p.handler.Store(&dead)
	// Nothing is pending (-batch 1): every ack already went through
	// its log, and no final snapshot is written.
	p.d.abort()
	p.d = nil
}

func (p *clusterMemberProc) stop() {
	if p.d == nil {
		return
	}
	closeDaemon(p.t, p.d)
	p.d = nil
}

func fetchClusterDoc(t *testing.T, base string) api.ClusterResponse {
	t.Helper()
	res, data := getBody(t, base+"/v1/cluster")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cluster doc: %d %s", res.StatusCode, data)
	}
	var doc api.ClusterResponse
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("cluster doc decode: %v (%s)", err, data)
	}
	return doc
}

// TestChaosCluster kills one member of a three-node cluster mid-soak
// and requires: typed 503 shedding for exactly the dead keyspace
// range while the rest keeps serving, every acked write surviving the
// hard kill, and — after the restart recovers the member from its WAL
// — the cluster converging to the byte-exact state of a single
// never-partitioned core.System fed the same acked traffic.
func TestChaosCluster(t *testing.T) {
	w := shardtest.Workload{Seed: 912, Objects: 12, Raters: 24, Malicious: 5, Months: 3, PerMonth: 200}
	months := w.Generate()

	// The oracle sees exactly the traffic the cluster acks, scored with
	// the configuration the members' default flags set.
	defaults, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewSystem(defaults.coreConfig())
	if err != nil {
		t.Fatal(err)
	}

	procs := make([]*clusterMemberProc, 3)
	urls := make([]string, len(procs))
	for i := range procs {
		procs[i] = newClusterMemberProc(t, 2)
		urls[i] = procs[i].url
	}
	table, err := cluster.EvenTable(1, urls)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		p.members = strings.Join(urls, ",")
		p.start()
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.stop()
		}
	})

	// Every node must own at least one object or the kill phase tests
	// nothing; the seed is chosen so the 8 objects spread.
	owned := map[int]int{}
	for obj := 0; obj < w.Objects; obj++ {
		owned[table.OwnerOfObject(rating.ObjectID(obj))]++
	}
	for n := range procs {
		if owned[n] == 0 {
			t.Fatalf("node %d owns no objects; pick a different seed (spread %v)", n, owned)
		}
	}

	rt, err := cluster.NewRouter(table, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	ctx := context.Background()
	client := server.NewClient(front.URL, nil)

	submit := func(rs []rating.Rating) {
		t.Helper()
		payload := make([]api.RatingPayload, len(rs))
		for i, r := range rs {
			payload[i] = api.RatingPayload{
				Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
			}
		}
		if _, err := client.Submit(ctx, payload); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if err := oracle.SubmitAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	process := func(start, end float64) {
		t.Helper()
		if _, err := client.Process(ctx, start, end); err != nil {
			t.Fatalf("process [%g,%g): %v", start, end, err)
		}
		if _, err := oracle.ProcessWindow(start, end); err != nil {
			t.Fatal(err)
		}
	}
	wantUnavailable := func(what string, err error) {
		t.Helper()
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: got %v, want a typed APIError", what, err)
		}
		if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeUnavailable {
			t.Fatalf("%s: got %d %s, want 503 %s", what, apiErr.Status, apiErr.Code, api.CodeUnavailable)
		}
	}

	// Month 0: the whole cluster up.
	submit(months[0].Ratings)
	process(months[0].Start, months[0].End)

	// Hard-kill member 1 mid-soak.
	ackedOnVictim := 0
	for _, r := range months[0].Ratings {
		if table.OwnerOfObject(r.Object) == 1 {
			ackedOnVictim++
		}
	}
	procs[1].kill()

	// The dead range sheds with typed 503s; the live ranges keep
	// serving. Month 1 splits by ownership.
	var deadRs, liveRs []rating.Rating
	for _, r := range months[1].Ratings {
		if table.OwnerOfObject(r.Object) == 1 {
			deadRs = append(deadRs, r)
		} else {
			liveRs = append(liveRs, r)
		}
	}
	submit(liveRs)

	_, err = client.Submit(ctx, []api.RatingPayload{{
		Rater: int(deadRs[0].Rater), Object: int(deadRs[0].Object),
		Value: deadRs[0].Value, Time: deadRs[0].Time,
	}})
	wantUnavailable("submit into dead range", err)

	deadObj := ownedObject(t, table, 1)
	_, err = client.Aggregate(ctx, int(deadObj))
	wantUnavailable("aggregate in dead range", err)
	liveObj := ownedObject(t, table, 0)
	if _, err := client.Aggregate(ctx, int(liveObj)); err != nil {
		t.Fatalf("aggregate in live range while node 1 down: %v", err)
	}

	// A window needs every non-empty range scanned: refused, not
	// half-applied.
	_, err = client.Process(ctx, months[1].Start, months[1].End)
	wantUnavailable("process with a node down", err)

	// Trust is replicated, so reads fail over to live members.
	if _, err := client.Trust(ctx, 0); err != nil {
		t.Fatalf("trust read while node 1 down: %v", err)
	}

	// The routing doc reports the outage.
	doc := fetchClusterDoc(t, front.URL)
	for i, n := range doc.Nodes {
		want := "ok"
		if i == 1 {
			want = "down"
		}
		if n.Status != want {
			t.Fatalf("node %d status %q, want %q (doc %+v)", i, n.Status, want, doc.Nodes)
		}
	}

	// Restart: WAL recovery must hold every acked write.
	procs[1].start()
	if got := procs[1].d.engine.Len(); got != ackedOnVictim {
		t.Fatalf("restarted member holds %d ratings, want the %d acked before the kill", got, ackedOnVictim)
	}
	if got := procs[1].d.engine.LastWindowEnd(); got != months[0].End {
		t.Fatalf("restarted member window high-water %g, want %g", got, months[0].End)
	}
	doc = fetchClusterDoc(t, front.URL)
	if doc.Nodes[1].Status != "ok" {
		t.Fatalf("restarted node still %q in the routing doc", doc.Nodes[1].Status)
	}

	// The shed writes retry against the recovered owner, the deferred
	// window closes, and month 2 runs clean.
	submit(deadRs)
	process(months[1].Start, months[1].End)
	submit(months[2].Ratings)
	process(months[2].Start, months[2].End)

	// Conformance: the cluster is byte-identical to the oracle.
	got, err := shardtest.Fingerprint(routed{rt, procs[0].d.engine, t}, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shardtest.Fingerprint(shardtest.Oracle{System: oracle}, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-chaos cluster diverges from the never-partitioned oracle:\n--- oracle\n%s--- cluster\n%s", want, got)
	}

	// Every member — including the restarted one — converged to the
	// identical replicated trust map.
	base := procs[0].d.engine.TrustSnapshot()
	for i, p := range procs[1:] {
		snap := p.d.engine.TrustSnapshot()
		if len(snap) != len(base) {
			t.Fatalf("member %d: %d trust records, member 0 has %d", i+1, len(snap), len(base))
		}
		for id, v := range base {
			if snap[id] != v {
				t.Fatalf("member %d: trust[%d]=%v, member 0 has %v", i+1, id, snap[id], v)
			}
		}
	}
}

// ownedObject finds a low-numbered object the table assigns to node n.
func ownedObject(t *testing.T, table cluster.Table, n int) rating.ObjectID {
	t.Helper()
	for obj := 0; obj < 1000; obj++ {
		if table.OwnerOfObject(rating.ObjectID(obj)) == n {
			return rating.ObjectID(obj)
		}
	}
	t.Fatalf("node %d owns none of the first 1000 objects", n)
	return 0
}
