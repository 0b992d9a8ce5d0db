package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/trust"
	"repro/internal/wal"
)

// The traced run replays a workload against an in-process stack built
// from the same public constructors cmd/ratingd calls, with the same
// settings as the daemon flags the benchmark passes (-fsync always,
// default batch, read cache and stream batch). Spans are recorded at
// the seams those constructors expose: the Journal the server calls,
// the router's FlushFunc, the Backend's Aggregate, and the server's
// ServeHTTP. Two differences from the daemon are deliberate: handlers
// run without the per-request TimeoutHandler, which would move every
// request onto a goroutine of its own and hide which layer it is in,
// and there is no loopback socket between the generator and the stack.

// daemonConfig mirrors ratingd's default detector and trust flags, so
// the in-process stack and the core.System oracle score like the
// daemon does.
func daemonConfig(reg *telemetry.Registry) core.Config {
	cfg := core.Config{
		Detector: detector.Config{Width: 10, TimeStep: 5, Order: 4, Threshold: 0.1},
		Trust:    trust.ManagerConfig{B: 1, Forgetting: 1},
	}
	if reg != nil {
		cfg.Metrics = core.NewMetrics(reg)
	}
	return cfg
}

// journal mirrors ratingd's shard journal: one WAL per shard behind
// the batching router; ratings are appended, group-committed, then
// applied, and windows are broadcast to every log as barriers.
type journal struct {
	mu     sync.RWMutex
	engine *shard.Engine
	router *shard.Router
	logs   []*wal.Log
	seq    uint64
	recs   [][]wal.Record
	tr     *tracer
}

func (j *journal) flush(i int, rs []rating.Rating) error {
	j.mu.RLock()
	defer j.mu.RUnlock()
	h := j.tr.begin(lWALAppend)
	recs := j.recs[i][:0]
	for _, r := range rs {
		recs = append(recs, wal.RatingRecord(r))
	}
	j.recs[i] = recs
	token, err := j.logs[i].AppendAllBuffered(recs)
	h.end()
	if err != nil {
		return err
	}
	h = j.tr.begin(lWALCommit)
	err = j.logs[i].Commit(token)
	h.end()
	if err != nil {
		return err
	}
	h = j.tr.begin(lShardSubmit)
	defer h.end()
	return j.engine.SubmitShard(i, rs)
}

func (j *journal) SubmitAll(rs []rating.Rating) error {
	h := j.tr.begin(lRouterWait)
	defer h.end()
	return j.router.Submit(rs)
}

func (j *journal) SubmitAsync(rs []rating.Rating) (func() error, error) {
	h := j.tr.begin(lRouterWait)
	wait, err := j.router.SubmitAsync(rs)
	h.end()
	if err != nil {
		return nil, err
	}
	return func() error {
		h := j.tr.begin(lRouterWait)
		defer h.end()
		return wait()
	}, nil
}

func (j *journal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	h := j.tr.begin(lWALAppend)
	rec := wal.BarrierRecord(j.seq, start, end)
	for _, l := range j.logs {
		if err := l.Append(rec); err != nil {
			h.end()
			return core.ProcessReport{}, err
		}
	}
	h.end()
	j.seq++
	h = j.tr.begin(lShardWindow)
	defer h.end()
	return j.engine.ProcessWindow(start, end)
}

func (j *journal) Restore(r io.Reader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.engine.LoadSnapshot(r); err != nil {
		return err
	}
	return j.snapshotLocked()
}

// snapshot rebases every shard log on the current state, as ratingd
// does with the recovered state at start.
func (j *journal) snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *journal) snapshotLocked() error {
	for i, l := range j.logs {
		i := i
		if err := l.Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(j.engine, i, j.seq-1, w)
		}); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// tracedEngine times the cache misses that reach Engine.Aggregate.
type tracedEngine struct {
	*shard.Engine
	tr    *tracer
	calls atomic.Int64
}

func (e *tracedEngine) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	h := e.tr.begin(lShardAggregate)
	defer h.end()
	e.calls.Add(1)
	return e.Engine.Aggregate(obj)
}

// spanHandler records a span around the server's ServeHTTP; stream
// ingest gets a layer of its own.
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := lServer
		if r.URL.Path == "/v1/ratings:stream" {
			l = lServerStream
		}
		s := tr.begin(l)
		defer s.end()
		h.ServeHTTP(w, r)
	})
}

// node is one in-process ratingd: engine, per-shard WALs, journal,
// router and server, recovered from a data directory the daemon left.
type node struct {
	reg       *telemetry.Registry
	engine    *tracedEngine
	jr        *journal
	router    *shard.Router
	streaming *shard.Streaming
	shardM    *shard.Metrics
	walM      *wal.Metrics
	handler   http.Handler
	walDir    string
	openS     float64 // wal.Open of every shard log
	recoverS  float64 // shard.Recover
}

// liveEpoch reads the epoch ratingd's MANIFEST commits; a fresh
// directory starts at epoch 1 as ratingd's does.
func liveEpoch(dir string) (int, error) {
	b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	var m struct {
		Epoch, Shards int
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	return m.Epoch, nil
}

func openNode(dir string, streamDetect bool, tr *tracer) (*node, error) {
	const shards = 2
	epoch, err := liveEpoch(dir)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	eng, err := shard.NewEngine(daemonConfig(reg), shards)
	if err != nil {
		return nil, err
	}
	n := &node{reg: reg, shardM: shard.NewMetrics(reg, shards), walM: wal.NewMetrics(reg)}
	eng.SetMetrics(n.shardM)
	n.engine = &tracedEngine{Engine: eng, tr: tr}
	n.walDir = filepath.Join(dir, fmt.Sprintf("epoch-%04d", epoch))

	t0 := time.Now()
	logs := make([]*wal.Log, shards)
	recs := make([]shard.RecoveredShard, shards)
	for i := range logs {
		l, rec, err := wal.Open(wal.Options{
			Dir:     filepath.Join(n.walDir, fmt.Sprintf("shard-%04d", i)),
			Policy:  wal.SyncAlways,
			Metrics: n.walM,
		})
		if err != nil {
			for _, l := range logs[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("open shard %d wal: %w", i, err)
		}
		logs[i], recs[i] = l, shard.RecoveredShard{Snapshot: rec.Snapshot, Records: rec.Records}
	}
	n.openS = time.Since(t0).Seconds()
	t0 = time.Now()
	stats, err := shard.Recover(eng, recs, nil)
	n.recoverS = time.Since(t0).Seconds()
	n.jr = &journal{engine: eng, logs: logs, seq: 1, recs: make([][]wal.Record, shards), tr: tr}
	if err != nil {
		n.closeLogs()
		return nil, fmt.Errorf("recover: %w", err)
	}
	n.jr.seq = stats.NextSeq

	n.router, err = shard.NewRouter(shard.RouterConfig{
		Shards:    shards,
		BatchSize: 256,
		Interval:  2 * time.Millisecond,
		Flush:     n.jr.flush,
		Metrics:   n.shardM,
	})
	if err != nil {
		n.closeLogs()
		return nil, err
	}
	n.jr.router = n.router

	srv, err := server.NewWith(n.engine,
		server.WithRequestTimeout(0),
		server.WithTelemetry(reg),
		server.WithJournal(n.jr),
	)
	if err != nil {
		n.close()
		return nil, err
	}
	n.handler = spanHandler(tr, srv)
	// ratingd makes the recovered state the logs' baseline at start.
	if err := n.jr.snapshot(); err != nil {
		n.close()
		return nil, fmt.Errorf("initial snapshot: %w", err)
	}
	if streamDetect {
		n.streaming, err = eng.EnableStreaming(shard.StreamConfig{
			Detector:       detector.Config{Size: 50, Step: 25, Order: 4, Threshold: 0.1},
			AlertThreshold: 0.5,
			ResumeAfter:    eng.LastWindowEnd(),
		})
		if err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

func (n *node) closeLogs() {
	for _, l := range n.jr.logs {
		l.Close()
	}
}

func (n *node) close() {
	if n.router != nil {
		_ = n.router.Close()
	}
	if n.streaming != nil {
		n.streaming.Close()
	}
	n.closeLogs()
}

// inproc is an http.RoundTripper that serves each request with the
// in-process node's handler, on the caller's goroutine.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// inprocClient speaks to n as the workloads speak to a daemon.
func inprocClient(n *node) *client {
	return &client{hc: &http.Client{Transport: inproc{n.handler}}, base: "http://ratingd.inproc"}
}
