package repl_test

// Test harness: a miniature primary node — shard.Engine behind the
// daemon's per-shard WAL journal (internal/journal) — served over
// httptest, plus a follower wrapper and a byte-level flaky TCP proxy
// for the chaos suite.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rating"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/wal"
)

// primaryNode writes through its journal (SubmitAll, ProcessWindow,
// Snapshot) and reads from its engine, so it is a shardtest.System the
// conformance harness can drive directly.
type primaryNode struct {
	*journal.Journal
	engine *shard.Engine

	srv       *httptest.Server
	closeOnce sync.Once
}

func newPrimaryNode(t testing.TB, shards int) *primaryNode {
	return newPrimaryNodeWAL(t, shards, wal.Options{Policy: wal.SyncNever})
}

// newPrimaryNodeWAL is newPrimaryNode with its shard logs opened under
// opts.
func newPrimaryNodeWAL(t testing.TB, shards int, opts wal.Options) *primaryNode {
	t.Helper()
	engine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	j, _, err := journal.Open(engine, journal.Config{Dir: t.TempDir(), WAL: opts})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	t.Cleanup(j.Abort)
	p := &primaryNode{Journal: j, engine: engine}
	rp := repl.NewPrimary(repl.PrimaryConfig{
		Journal:   j,
		LongPoll:  2 * time.Second,
		Poll:      time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	mux := http.NewServeMux()
	rp.Routes(mux)
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.kill)
	return p
}

// kill abruptly severs every client connection and stops serving —
// the in-process stand-in for kill -9 of the primary's serving side.
func (p *primaryNode) kill() {
	p.closeOnce.Do(func() {
		p.srv.CloseClientConnections()
		p.srv.Close()
	})
}

func (p *primaryNode) url() string { return p.srv.URL }

func (p *primaryNode) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	return p.engine.Aggregate(obj)
}
func (p *primaryNode) TrustSnapshot() map[rating.RaterID]float64  { return p.engine.TrustSnapshot() }
func (p *primaryNode) MaliciousRaters() ([]rating.RaterID, error) { return p.engine.MaliciousRaters() }
func (p *primaryNode) Len() int                                   { return p.engine.Len() }

type followerNode struct {
	t       testing.TB
	engine  *shard.Engine
	f       *repl.Follower
	metrics *repl.Metrics
	runDone chan struct{}
}

func newFollowerNode(t testing.TB, shards int, primaryURL string, tweak func(*repl.FollowerConfig)) *followerNode {
	t.Helper()
	engine, err := shard.NewEngine(core.Config{}, shards)
	if err != nil {
		t.Fatalf("follower engine: %v", err)
	}
	cfg := repl.FollowerConfig{
		PrimaryURL:   primaryURL,
		Engine:       engine,
		Seed:         42,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 40 * time.Millisecond,
		FrameTimeout: 3 * time.Second,
		Warnf:        t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	fn := &followerNode{t: t, engine: engine, metrics: cfg.Metrics, runDone: make(chan struct{})}
	fn.f = repl.NewFollower(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer close(fn.runDone)
		if err := fn.f.Run(ctx); err != nil {
			t.Errorf("follower run: %v", err)
		}
	}()
	t.Cleanup(func() {
		fn.f.Stop()
		cancel()
		<-fn.runDone
	})
	return fn
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitAligned waits until the follower has applied barrier seq and
// reports zero record lag.
func (fn *followerNode) waitAligned(seq uint64, d time.Duration) {
	fn.t.Helper()
	waitFor(fn.t, d, fmt.Sprintf("follower at barrier %d with lag 0", seq), func() bool {
		if fn.f.AppliedBarrier() != seq {
			return false
		}
		records, _, ok := fn.f.Lag()
		return ok && records == 0
	})
}

// chaosFrontend sits between follower and primary as an HTTP reverse
// proxy with failure injection:
//   - sever() abruptly kills every in-flight connection (a network
//     flap: streams die mid-chunk with an unexpected EOF);
//   - armGarble() makes the next stream request serve one torn NDJSON
//     frame and end — the follower must reject it and resync;
//   - snapLimit truncates snapshot responses after n bytes — the
//     kill-mid-bootstrap injection.
type chaosFrontend struct {
	t      *testing.T
	target string
	rp     *httputil.ReverseProxy
	srv    *httptest.Server

	garble    atomic.Bool
	snapLimit atomic.Int64
	snapCuts  atomic.Int64
	garbles   atomic.Int64
}

func newChaosFrontend(t *testing.T, targetURL string) *chaosFrontend {
	t.Helper()
	u, err := url.Parse(targetURL)
	if err != nil {
		t.Fatalf("frontend target: %v", err)
	}
	c := &chaosFrontend{t: t, target: targetURL}
	c.rp = httputil.NewSingleHostReverseProxy(u)
	c.rp.FlushInterval = -1                                                // stream frames through immediately
	c.rp.ErrorHandler = func(http.ResponseWriter, *http.Request, error) {} // severed conns are expected
	c.srv = httptest.NewServer(http.HandlerFunc(c.handle))
	t.Cleanup(c.srv.Close)
	return c
}

func (c *chaosFrontend) url() string { return c.srv.URL }

func (c *chaosFrontend) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/repl/stream" && c.garble.CompareAndSwap(true, false) {
		c.garbles.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"type":"records","shard":0,"records":[{"TORN`+"\n")
		return
	}
	if n := c.snapLimit.Load(); n > 0 && r.URL.Path == "/v1/repl/snapshot" {
		c.snapCuts.Add(1)
		resp, err := http.Get(c.target + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.CopyN(w, resp.Body, n)
		panic(http.ErrAbortHandler) // truncate: no terminal chunk reaches the client
	}
	c.rp.ServeHTTP(w, r)
}

// armGarble makes the next stream request serve a torn frame.
func (c *chaosFrontend) armGarble() { c.garble.Store(true) }

// sever kills every in-flight follower connection.
func (c *chaosFrontend) sever() { c.srv.CloseClientConnections() }
