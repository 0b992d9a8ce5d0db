package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard/shardtest"
)

// replDaemon is a primary or follower built by its role constructor
// and served on an httptest listener.
type replDaemon struct {
	ts     *httptest.Server
	d      *daemon // nil once the test has shut it down itself
	walDir string
}

// serveDaemon builds a daemon, serves it, and shuts it down gracefully
// when the test ends unless the test set d to nil after closing or
// aborting it.
func serveDaemon(t *testing.T, ctor func(options) (*daemon, error), args ...string) *replDaemon {
	t.Helper()
	r := &replDaemon{d: build(t, ctor, args...)}
	t.Cleanup(func() {
		if r.d == nil {
			return
		}
		if err := r.d.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	r.ts = httptest.NewServer(r.d.handler)
	t.Cleanup(r.ts.Close)
	return r
}

// startReplDaemon serves a durable daemon over a fresh WAL directory.
func startReplDaemon(t *testing.T, ctor func(options) (*daemon, error), shards int, extra ...string) *replDaemon {
	t.Helper()
	walDir := t.TempDir()
	r := serveDaemon(t, ctor, append([]string{"-wal", walDir, "-shards", strconv.Itoa(shards),
		"-fsync", "never", "-batch", "64", "-batch-interval", "1ms"}, extra...)...)
	r.walDir = walDir
	return r
}

func startPrimaryDaemon(t *testing.T, shards int) *replDaemon {
	t.Helper()
	return startReplDaemon(t, newPrimary, shards)
}

func startFollowerDaemon(t *testing.T, primaryURL string, shards int, extra ...string) *replDaemon {
	t.Helper()
	return startReplDaemon(t, newFollower, shards, append([]string{
		"-follow", primaryURL, "-max-lag-records", "10000", "-repl-seed", "7"}, extra...)...)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	return res, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	return res, data
}

func replStatus(t *testing.T, base string) api.ReplStatusResponse {
	t.Helper()
	res, data := getBody(t, base+"/v1/repl/status")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("repl status: %d %s", res.StatusCode, data)
	}
	var st api.ReplStatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("repl status decode: %v (%s)", err, data)
	}
	return st
}

// features reads the feature flags of h's discovery document.
func features(t *testing.T, h http.Handler) api.DiscoveryFeatures {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1", nil))
	var doc api.DiscoveryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1: %d %v (%s)", rec.Code, err, rec.Body)
	}
	return doc.Features
}

func waitDaemon(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The full daemon story end to end: a follower replicates a sharded-
// WAL primary, serves byte-identical lag-stamped reads, refuses writes
// with a redirect to the primary, and — promoted via the one-shot
// client — commits a fresh WAL epoch and starts accepting writes.
// GET /v1 reports replication exactly while the node serves it.
func TestDaemonFollowerServesAndPromotes(t *testing.T) {
	p := seedPrimary(t)
	f := startFollowerDaemon(t, p.ts.URL, 2)
	awaitCaughtUp(t, f)

	// Reads: byte-identical to the primary, stamped with the lag header.
	for _, path := range []string{"/v1/stats", "/v1/objects/1/aggregate", "/v1/raters/1/trust"} {
		resP, bodyP := getBody(t, p.ts.URL+path)
		resF, bodyF := getBody(t, f.ts.URL+path)
		if resP.StatusCode != resF.StatusCode || string(bodyP) != string(bodyF) {
			t.Fatalf("%s: replica differs: %d %s vs %d %s", path, resP.StatusCode, bodyP, resF.StatusCode, bodyF)
		}
		if resF.Header.Get(server.ReplicaLagHeader) == "" {
			t.Fatalf("%s: replica read missing %s", path, server.ReplicaLagHeader)
		}
	}

	// Writes redirect to the primary; so does a replication request.
	res, data := postJSON(t, f.ts.URL+"/v1/ratings", `[{"rater":9,"object":1,"value":0.5,"time":3}]`)
	var env api.Error
	if json.Unmarshal(data, &env); res.StatusCode != http.StatusMisdirectedRequest ||
		env.Code != api.CodeNotPrimary || env.Primary != p.ts.URL {
		t.Fatalf("follower write: %d %s", res.StatusCode, data)
	}
	if res, data := getBody(t, f.ts.URL+"/v1/repl/snapshot"); res.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower bootstrap-serve: %d %s", res.StatusCode, data)
	}
	if got := features(t, p.d.handler); !got.Replication || got.StreamDetect || got.Cluster {
		t.Fatalf("primary features %+v", got)
	}
	if got := features(t, f.d.handler); got.Replication {
		t.Fatalf("follower features %+v", got)
	}

	// Promote through the `ratingd -promote <url>` one-shot path.
	if err := promoteRemote(f.ts.URL); err != nil {
		t.Fatal(err)
	}
	st := replStatus(t, f.ts.URL)
	if st.Role != api.RolePrimary || st.Epoch != 2 || st.BarrierSeq != 1 {
		t.Fatalf("promoted status: %+v", st)
	}
	if m, ok, err := journal.ReadManifest(f.walDir); err != nil || !ok || m.Epoch != 2 || m.Shards != 2 {
		t.Fatalf("promoted manifest: %+v ok=%v err=%v", m, ok, err)
	}
	if got := features(t, f.d.handler); !got.Replication || !got.StreamIngest {
		t.Fatalf("promoted features %+v", got)
	}

	// The promoted node accepts writes and windows through its new WAL.
	if res, data := postJSON(t, f.ts.URL+"/v1/ratings", `[{"rater":9,"object":1,"value":0.5,"time":3}]`); res.StatusCode != http.StatusOK {
		t.Fatalf("promoted submit: %d %s", res.StatusCode, data)
	}
	if res, data := postJSON(t, f.ts.URL+"/v1/process", `{"start":0,"end":30}`); res.StatusCode != http.StatusOK {
		t.Fatalf("promoted process: %d %s", res.StatusCode, data)
	}
	if res, _ := getBody(t, f.ts.URL+"/v1/stats"); res.Header.Get(server.ReplicaLagHeader) != "" {
		t.Fatal("promoted node still stamps replica lag")
	}
	if got := replStatus(t, f.ts.URL); got.BarrierSeq != 2 {
		t.Fatalf("promoted barrier height: %+v", got)
	}

	// Promotion is idempotent.
	if res, data := postJSON(t, f.ts.URL+"/v1/repl/promote", ""); res.StatusCode != http.StatusOK {
		t.Fatalf("re-promote: %d %s", res.StatusCode, data)
	}
}

// A follower's reads follow the replicated state: after replicated
// ratings for the object, then after a replicated window, the served
// aggregate equals the core.System oracle fed the same changes and
// differs from the answer read before.
func TestDaemonFollowerServesFreshReads(t *testing.T) {
	p := startPrimaryDaemon(t, 2)
	f := startFollowerDaemon(t, p.ts.URL, 2)
	oracle, err := core.NewSystem(p.d.o.coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	caughtUp := func(what string, cond func() bool) {
		t.Helper()
		waitDaemon(t, 10*time.Second, what, func() bool {
			return cond() && replStatus(t, f.ts.URL).LagRecords == 0
		})
	}

	submitBoth(t, p.ts.URL, oracle, shardtest.UnevenCharge(1))
	caughtUp("follower catch-up", func() bool { return f.d.engine.Len() == oracle.Len() })
	first := getAggregate(t, f.ts.URL, 1)
	getAggregate(t, f.ts.URL, 1) // a repeated read

	submitBoth(t, p.ts.URL, oracle, []rating.Rating{{Rater: 3, Object: 1, Value: 0.7, Time: 8}})
	caughtUp("replicated ratings", func() bool { return f.d.engine.Len() == oracle.Len() })
	second := requireFreshAggregate(t, f.ts.URL, oracle, 1, first)

	if res, data := postJSON(t, p.ts.URL+"/v1/process", `{"start":0,"end":30}`); res.StatusCode != http.StatusOK {
		t.Fatalf("primary process: %d %s", res.StatusCode, data)
	}
	if _, err := oracle.ProcessWindow(0, 30); err != nil {
		t.Fatal(err)
	}
	caughtUp("replicated window", func() bool { return f.d.engine.LastWindowEnd() == 30 })
	requireFreshAggregate(t, f.ts.URL, oracle, 1, second)
}

// With -promote-after, a bootstrapped follower of a single-shard
// primary crowns itself once the primary goes silent past the
// deadline. The deadline sits above the primary's idle heartbeat (3s),
// so a live primary never trips it.
func TestDaemonAutoPromoteOnPrimaryDeath(t *testing.T) {
	p := startPrimaryDaemon(t, 1)
	if res, data := postJSON(t, p.ts.URL+"/v1/ratings", `[{"rater":1,"object":1,"value":0.5,"time":1}]`); res.StatusCode != http.StatusOK {
		t.Fatalf("primary submit: %d %s", res.StatusCode, data)
	}

	f := startFollowerDaemon(t, p.ts.URL, 1, "-promote-after", "4s")
	waitDaemon(t, 10*time.Second, "follower convergence", func() bool {
		return replStatus(t, f.ts.URL).LagRecords == 0 && f.d.node.follower.LastContact() != (time.Time{})
	})
	if f.d.node.isPromoted() {
		t.Fatal("promoted while the primary was alive")
	}

	p.ts.CloseClientConnections()
	p.ts.Close()

	waitDaemon(t, 15*time.Second, "auto-promotion", func() bool { return f.d.node.isPromoted() })
	if st := replStatus(t, f.ts.URL); st.Role != api.RolePrimary {
		t.Fatalf("post-death status: %+v", st)
	}
	if res, data := postJSON(t, f.ts.URL+"/v1/ratings", `[{"rater":2,"object":1,"value":0.7,"time":2}]`); res.StatusCode != http.StatusOK {
		t.Fatalf("post-death submit: %d %s", res.StatusCode, data)
	}
}
