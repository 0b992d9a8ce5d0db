package cluster

// In-process cluster harness: N member daemons (shard engine + API
// server + cluster-internal routes) behind httptest listeners, fronted
// by a Router. Member handlers are swappable through an atomic pointer
// so tests can kill and revive a node without its URL changing.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
)

// memberNode is one in-process cluster member.
type memberNode struct {
	url     string
	eng     *shard.Engine
	member  *Member
	srv     *server.Server
	hs      *httptest.Server
	handler atomic.Pointer[http.Handler]
}

// down makes the node unreachable: every request aborts the
// connection, which clients see as a transport error, exactly like a
// killed process behind a stable address.
func (n *memberNode) down() {
	var h http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	n.handler.Store(&h)
}

// up restores the node's real handler.
func (n *memberNode) up() {
	var h http.Handler = n.serveMux()
	n.handler.Store(&h)
}

func (n *memberNode) serveMux() http.Handler {
	mux := http.NewServeMux()
	n.member.Routes(mux)
	mux.Handle("/", n.srv)
	return mux
}

// testCluster is N members plus the router, all in-process.
type testCluster struct {
	t       testing.TB
	table   Table
	members []*memberNode
	router  *Router
	front   *httptest.Server // the router's public HTTP face
}

// routed drives a router as a shardtest.System; a read the router
// fails fails the test. No v1 route serves the whole trust map, so
// TrustSnapshot takes the rater set from one member's engine (trust is
// replicated) and reads every value through the router's per-rater
// trust path.
type routed struct {
	*Router
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

// system is the cluster as the shardtest harness drives it.
func (tc *testCluster) system() routed { return routed{tc.router, tc.members[0].eng, tc.t} }

// newTestCluster builds an n-node cluster, each member running a
// shard.Engine with the given shard count.
func newTestCluster(t testing.TB, nodes, shards int) *testCluster {
	t.Helper()
	return newTestClusterTable(t, nodes, shards, nil)
}

// newTestClusterTable is newTestCluster with an optional custom range
// assignment: mkTable receives the member URLs and returns the table
// (nil means EvenTable at epoch 1).
func newTestClusterTable(t testing.TB, nodes, shards int, mkTable func(urls []string) Table) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		n := &memberNode{}
		var placeholder http.Handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "not wired yet", http.StatusServiceUnavailable)
		})
		n.handler.Store(&placeholder)
		n.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*n.handler.Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(n.hs.Close)
		n.url = n.hs.URL
		urls[i] = n.url
		tc.members = append(tc.members, n)
	}

	if mkTable != nil {
		tc.table = mkTable(urls)
	} else {
		table, err := EvenTable(1, urls)
		if err != nil {
			t.Fatal(err)
		}
		tc.table = table
	}

	for _, n := range tc.members {
		eng, err := shard.NewEngine(core.Config{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		n.eng = eng
		member, err := NewMember(tc.table, n.url, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.member = member
		srv, err := server.NewWith(eng,
			server.WithCluster(member),
			server.WithFeatures(api.DiscoveryFeatures{StreamIngest: true, Cluster: true}),
		)
		if err != nil {
			t.Fatal(err)
		}
		n.srv = srv
		n.up()
	}

	router, err := NewRouter(tc.table, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = router
	tc.front = httptest.NewServer(router)
	t.Cleanup(tc.front.Close)
	return tc
}
