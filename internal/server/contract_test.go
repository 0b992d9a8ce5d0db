package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/trust"
	"repro/internal/wal"
)

var updateContract = flag.Bool("update", false, "rewrite contract fixtures instead of comparing")

// contractFixture is what each checked-in fixture holds: the status,
// the contract-relevant headers, and every JSON value in the body (one
// for ordinary responses, several for NDJSON streams). Bodies are
// stored re-indented, so a fixture diff reads as a field-level wire
// change.
type contractFixture struct {
	Status  int               `json:"status"`
	Headers map[string]string `json:"headers,omitempty"`
	Body    []json.RawMessage `json:"body"`
}

// faultBackend wraps the real backend with deterministic failure
// injection for the error-path fixtures.
type faultBackend struct {
	Backend
	aggregateErr error
	panicMsg     string
}

func (f *faultBackend) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	if f.panicMsg != "" {
		panic(f.panicMsg)
	}
	if f.aggregateErr != nil {
		return core.AggregateResult{}, f.aggregateErr
	}
	return f.Backend.Aggregate(obj)
}

// failingJournal refuses every mutation, producing the 503 envelope.
type failingJournal struct{}

func (failingJournal) SubmitAll([]rating.Rating) error { return errors.New("wal: no space left") }
func (failingJournal) ProcessWindow(float64, float64) (core.ProcessReport, error) {
	return core.ProcessReport{}, errors.New("wal: no space left")
}
func (failingJournal) Restore(io.Reader) error { return errors.New("wal: no space left") }

// contractSeed loads a fixed, deterministic state: a handful of honest
// ratings plus one constant-rating clique that the maintenance pass
// flags, so /v1/malicious and the trust distribution are non-trivial.
func contractSeed(t *testing.T, b Backend) {
	t.Helper()
	var rs []rating.Rating
	for i := 0; i < 10; i++ {
		rs = append(rs, rating.Rating{
			Rater: rating.RaterID(i + 1), Object: 1,
			Value: 0.4 + 0.02*float64(i), Time: float64(i),
		})
	}
	for i := 0; i < 20; i++ {
		rs = append(rs, rating.Rating{
			Rater: rating.RaterID(100 + i), Object: 2,
			Value: 0.95, Time: float64(i),
		})
	}
	if err := b.SubmitAll(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessWindow(0, 30); err != nil {
		t.Fatal(err)
	}
}

// checkFixture canonicalizes a live response against its checked-in
// fixture, and — for every non-2xx single-JSON body — validates the
// envelope against the api.Error contract.
func checkFixture(t *testing.T, name string, res *http.Response) {
	t.Helper()
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	fix := contractFixture{Status: res.StatusCode}
	addHeader := func(name string) {
		if v := res.Header.Get(name); v != "" {
			if fix.Headers == nil {
				fix.Headers = map[string]string{}
			}
			fix.Headers[name] = v
		}
	}
	addHeader("Retry-After")
	addHeader(ReplicaLagHeader)
	// Every v1 response advertises its contract version; capturing it
	// in each fixture makes a missing or changed stamp a contract
	// break, not a silent drift.
	addHeader(api.VersionHeader)
	for _, line := range bytes.Split(raw, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var v json.RawMessage
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("%s: response line is not JSON: %q (%v)", name, line, err)
		}
		fix.Body = append(fix.Body, v)
	}

	// Envelope validation: every non-2xx body must be a closed-catalogue
	// api.Error.
	if res.StatusCode/100 != 2 {
		if len(fix.Body) != 1 {
			t.Fatalf("%s: error response carries %d JSON values", name, len(fix.Body))
		}
		var env api.Error
		dec := json.NewDecoder(bytes.NewReader(fix.Body[0]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("%s: error body is not an api.Error envelope: %v", name, err)
		}
		if err := env.Validate(); err != nil {
			t.Fatalf("%s: envelope invalid: %v (%+v)", name, err, env)
		}
	}

	got, err := json.MarshalIndent(fix, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "contract", name+".json")
	if *updateContract {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run `go test ./internal/server -run TestWireContract -update` after intentional wire changes)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire contract drift.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestWireContract pins the v1 wire surface — success and every error
// code — to checked-in fixtures. A field rename, a dropped field, or a
// code change fails here before any client notices in production. A
// one-shard and a four-shard engine answer with the same bytes: the
// shard count never reaches the wire.
func TestWireContract(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			engine, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, shards)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewWith(engine)
			if err != nil {
				t.Fatal(err)
			}
			testWireContract(t, srv)
		})
	}
}

// testWireContract seeds srv and checks every v1 route's response
// against its fixture.
func testWireContract(t *testing.T, srv *Server) {
	contractSeed(t, srv.System())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) *http.Response {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	post := func(path, body string) *http.Response {
		res, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	checkFixture(t, "health", get("/healthz"))
	checkFixture(t, "discovery", get("/v1"))
	checkFixture(t, "cluster_not_member", get("/v1/cluster"))
	checkFixture(t, "submit_ok", post("/v1/ratings", `[{"rater":500,"object":1,"value":0.5,"time":40}]`))
	checkFixture(t, "submit_bad_request", post("/v1/ratings", `[{"rater":1,"object":1,"value":7,"time":0}]`))
	checkFixture(t, "process_ok", post("/v1/process", `{"start":0,"end":41}`))
	checkFixture(t, "process_bad_request", post("/v1/process", `{"start":10,"end":5}`))
	checkFixture(t, "aggregate_ok", get("/v1/objects/1/aggregate"))
	checkFixture(t, "aggregate_not_found", get("/v1/objects/404/aggregate"))
	checkFixture(t, "trust_ok", get("/v1/raters/1/trust"))
	checkFixture(t, "malicious_ok", get("/v1/malicious"))
	checkFixture(t, "malicious_page", get("/v1/malicious?offset=2&limit=3"))
	checkFixture(t, "malicious_bad_request", get("/v1/malicious?limit=-1"))
	checkFixture(t, "stats_ok", get("/v1/stats"))
	checkFixture(t, "stats_bounds", get("/v1/stats?bounds=0.25,0.5,0.75,1"))
	checkFixture(t, "stats_bad_request", get("/v1/stats?bounds=0.9,0.1"))
	checkFixture(t, "stream_reject", post("/v1/ratings:stream",
		"{\"rater\":600,\"object\":1,\"value\":0.5,\"time\":50}\n{\"rater\":601,\"object\":1,\"value\":9,\"time\":50}\n"))

	restoreReq, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/snapshot", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	restoreRes, err := ts.Client().Do(restoreReq)
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "restore_bad_request", restoreRes)

	// request_id attribution: any envelope for a request carrying
	// X-Request-Id echoes it back.
	ridReq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ratings",
		strings.NewReader(`[{"rater":1,"object":1,"value":7,"time":0}]`))
	if err != nil {
		t.Fatal(err)
	}
	ridReq.Header.Set("Content-Type", "application/json")
	ridReq.Header.Set(api.RequestIDHeader, "contract-rid-0001")
	ridRes, err := ts.Client().Do(ridReq)
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "submit_bad_request_request_id", ridRes)
}

// contractClusterView is a deterministic ClusterView for the cluster
// contract fixtures: a fixed two-node table that owns nothing locally,
// so ownership checks produce the wrong_node envelope.
type contractClusterView struct{}

func (contractClusterView) Epoch() uint64                   { return 7 }
func (contractClusterView) OwnsObject(rating.ObjectID) bool { return false }
func (contractClusterView) OwnerURL(rating.ObjectID) string { return "http://node2.example:8080" }
func (contractClusterView) Doc() api.ClusterResponse {
	return api.ClusterResponse{Epoch: 7, Nodes: []api.ClusterNode{
		{URL: "http://node1.example:8080", Lo: 0, Hi: 1 << 31, Status: "ok", WindowEnd: 30, Self: true},
		{URL: "http://node2.example:8080", Lo: 1 << 31, Hi: 1 << 32, Status: "ok", WindowEnd: 30},
	}}
}

// TestWireContractCluster pins the partitioned-serving surface: the
// membership document, the typed wrong_node refusal carrying the
// owner's URL, and the stale_epoch conflict for pinned requests.
func TestWireContractCluster(t *testing.T) {
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithCluster(contractClusterView{}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	res, err := ts.Client().Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "cluster_doc", res)

	res, err = ts.Client().Post(ts.URL+"/v1/ratings", "application/json",
		strings.NewReader(`[{"rater":1,"object":1,"value":0.5,"time":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "cluster_wrong_node", res)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.ClusterEpochHeader, "6")
	res, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "cluster_stale_epoch", res)

	req, err = http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.ClusterEpochHeader, "not-an-epoch")
	res, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "cluster_bad_epoch", res)
}

// TestWireContractErrorPaths covers the envelopes that need induced
// faults: payload caps, journal refusal, overload shedding, handler
// panics, conflicts, and the timeout handler's static body.
func TestWireContractErrorPaths(t *testing.T) {
	t.Run("payload_too_large", func(t *testing.T) {
		srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithMaxBodyBytes(64))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		big := `[{"rater":1,"object":1,"value":0.5,"time":1},{"rater":2,"object":1,"value":0.5,"time":1}]`
		res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "submit_payload_too_large", res)
	})

	t.Run("unavailable", func(t *testing.T) {
		srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithJournal(failingJournal{}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json",
			strings.NewReader(`[{"rater":1,"object":1,"value":0.5,"time":1}]`))
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "submit_unavailable", res)
	})

	t.Run("overloaded", func(t *testing.T) {
		srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
			WithAdmission(AdmissionConfig{MaxConcurrent: 1, MaxWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		<-srv.admission.tokens // saturate the only slot deterministically
		res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json",
			strings.NewReader(`[{"rater":1,"object":1,"value":0.5,"time":1}]`))
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "submit_overloaded", res)
	})

	t.Run("stream_overloaded", func(t *testing.T) {
		// Per-batch admission on the stream route: a saturated limiter
		// sheds the first flush, ending the stream with an overloaded
		// summary that carries the retry hint in-band (the response is
		// already streaming, so there is no 429 status to put it on).
		srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
			WithAdmission(AdmissionConfig{MaxConcurrent: 1, MaxWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		<-srv.admission.tokens // saturate the only slot deterministically
		res, err := ts.Client().Post(ts.URL+"/v1/ratings:stream", "application/x-ndjson",
			strings.NewReader("{\"rater\":1,\"object\":1,\"value\":0.5,\"time\":1}\n"))
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "stream_overloaded", res)
	})

	t.Run("conflict", func(t *testing.T) {
		base, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewWith(&faultBackend{Backend: base, aggregateErr: trust.ErrNoTrustedRaters})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		res, err := ts.Client().Get(ts.URL + "/v1/objects/1/aggregate")
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "aggregate_conflict", res)
	})

	t.Run("internal", func(t *testing.T) {
		base, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewWith(&faultBackend{Backend: base, panicMsg: "induced contract-test panic"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		res, err := ts.Client().Get(ts.URL + "/v1/objects/1/aggregate")
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "aggregate_internal", res)
	})

	t.Run("timeout", func(t *testing.T) {
		// http.TimeoutHandler writes a static string; require it to be a
		// valid envelope and pin its bytes.
		var env api.Error
		dec := json.NewDecoder(strings.NewReader(timeoutBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("timeoutBody is not an envelope: %v", err)
		}
		if err := env.Validate(); err != nil {
			t.Fatal(err)
		}
		if env.Code != api.CodeTimeout {
			t.Fatalf("timeoutBody code = %q", env.Code)
		}

		// End to end: a handler slower than the budget yields 503 with
		// that exact body.
		base, err := shard.NewEngine(core.Config{Detector: detector.Config{Threshold: 0.05}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow := &slowJournal{sys: base, delay: 200 * time.Millisecond}
		srv, err := NewWith(base, WithJournal(slow), WithRequestTimeout(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json",
			strings.NewReader(`[{"rater":1,"object":1,"value":0.5,"time":1}]`))
		if err != nil {
			t.Fatal(err)
		}
		checkFixture(t, "submit_timeout", res)
	})
}

// stubAlerts is a deterministic AlertSource for the alerts fixtures:
// a fixed log whose wall times are pinned, so fixture bytes never
// drift with the clock.
type stubAlerts struct{ alerts []api.Alert }

func (s stubAlerts) Alerts(since uint64) ([]api.Alert, uint64) {
	next := uint64(len(s.alerts))
	if since >= next {
		return nil, next
	}
	return s.alerts[since:], next
}

func (s stubAlerts) WaitAlerts(ctx context.Context, since uint64, wait time.Duration) ([]api.Alert, uint64) {
	if out, next := s.Alerts(since); len(out) > 0 {
		return out, next
	}
	// The stub log never grows, so a poll past the tail always runs
	// out its (test-sized) wait budget — the timeout shape.
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	_, next := s.Alerts(since)
	return nil, next
}

// TestWireContractAlerts pins the /v1/alerts long-poll surface: the
// populated read, the empty read, the timed-out poll (200 with an
// empty array, never an error), the 404 on nodes without streaming
// detection, and the 421 refusal on read replicas.
func TestWireContractAlerts(t *testing.T) {
	src := stubAlerts{alerts: []api.Alert{
		{Seq: 1, Rater: 103, Source: "stream", Suspicion: 0.41, FirstFlagged: 12.5, WallNS: 1700000000000000000},
		{Seq: 2, Rater: 107, Source: "collusion", Suspicion: 0.66, FirstFlagged: 19, WallNS: 1700000000250000000},
		{Seq: 3, Rater: 103, Source: "window", Suspicion: 0.05, FirstFlagged: 30, WallNS: 1700000000500000000},
	}}
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithAlerts(src))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(path string) *http.Response {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkFixture(t, "alerts_ok", get("/v1/alerts"))
	checkFixture(t, "alerts_empty", get("/v1/alerts?since=3"))
	checkFixture(t, "alerts_timeout", get("/v1/alerts?since=3&wait=0.02"))
	checkFixture(t, "alerts_bad_request", get("/v1/alerts?wait=-1"))

	// No streaming detection on this node: the route exists but the
	// feed does not.
	bare, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare)
	t.Cleanup(tsBare.Close)
	res, err := tsBare.Client().Get(tsBare.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "alerts_disabled", res)

	// Replicas refuse the read as misdirected even though it is a GET:
	// detection state lives on the primary.
	replica, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, WithAlerts(src),
		WithReplica(func() ReplicaInfo {
			return ReplicaInfo{Primary: "http://primary.example:8080", Ready: true}
		}))
	if err != nil {
		t.Fatal(err)
	}
	tsReplica := httptest.NewServer(replica)
	t.Cleanup(tsReplica.Close)
	res, err = tsReplica.Client().Get(tsReplica.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "alerts_not_primary", res)
}

// contractReplJournal is the minimal primary-side journal for the
// /v1/repl/status fixture: a fresh one-shard daemon at epoch 1 and
// barrier height zero.
type contractReplJournal struct{ log *wal.Log }

func (contractReplJournal) Epoch() int             { return 1 }
func (j contractReplJournal) Logs() []*wal.Log     { return []*wal.Log{j.log} }
func (contractReplJournal) Snapshot() error        { return nil }
func (contractReplJournal) NextBarrierSeq() uint64 { return 1 }

// TestWireContractReplica pins the replication serving surface: the
// not_primary write refusal, the replica_stale staleness refusal, the
// X-Replica-Lag header on fresh reads, and the primary's
// /v1/repl/status document.
func TestWireContractReplica(t *testing.T) {
	stale := ReplicaInfo{
		Primary: "http://primary.example:8080", Ready: true,
		LagRecords: 1200, LagSeconds: 9.25,
		MaxLagRecords: 1000, MaxLagSeconds: 30,
	}
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
		WithReplica(func() ReplicaInfo { return stale }))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json",
		strings.NewReader(`[{"rater":1,"object":1,"value":0.5,"time":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "repl_not_primary", res)

	res, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "repl_replica_stale", res)

	// Within bounds, reads serve normally and still advertise their lag.
	fresh := stale
	fresh.LagRecords, fresh.LagSeconds = 0, 0.042
	freshSrv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
		WithReplica(func() ReplicaInfo { return fresh }))
	if err != nil {
		t.Fatal(err)
	}
	tsFresh := httptest.NewServer(freshSrv)
	t.Cleanup(tsFresh.Close)
	res, err = tsFresh.Client().Get(tsFresh.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "repl_read_fresh", res)

	// The primary's replication status document.
	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(t.TempDir(), "wal"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	mux := http.NewServeMux()
	repl.NewPrimary(repl.PrimaryConfig{Journal: contractReplJournal{log}}).Routes(mux)
	tsRepl := httptest.NewServer(mux)
	t.Cleanup(tsRepl.Close)
	res, err = tsRepl.Client().Get(tsRepl.URL + "/v1/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, "repl_status", res)
}

// TestContractFixturesCoverCatalogue fails when an error code exists
// with no fixture pinning its wire shape, so new codes cannot ship
// untested.
func TestContractFixturesCoverCatalogue(t *testing.T) {
	if *updateContract {
		t.Skip("fixtures being rewritten")
	}
	covered := map[string]bool{}
	dir := filepath.Join("testdata", "contract")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var fix contractFixture
		if err := json.Unmarshal(raw, &fix); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for _, body := range fix.Body {
			var env api.Error
			if json.Unmarshal(body, &env) == nil && env.Code != "" {
				covered[env.Code] = true
			}
		}
	}
	for _, code := range []string{
		api.CodeBadRequest, api.CodeNotFound, api.CodeConflict,
		api.CodePayloadTooLarge, api.CodeOverloaded, api.CodeTimeout,
		api.CodeUnavailable, api.CodeInternal,
		api.CodeReplicaStale, api.CodeNotPrimary,
		api.CodeWrongNode, api.CodeStaleEpoch,
	} {
		if !covered[code] {
			t.Errorf("error code %q has no contract fixture", code)
		}
	}
}
