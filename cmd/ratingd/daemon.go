package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// daemon is one stateful ratingd process as its role constructor
// (newPrimary, newMember, newFollower) assembled it: the engine and the
// handler to serve, plus everything shutdown must drain. run() serves
// handler and then calls close; tests drive the same constructors.
type daemon struct {
	o       options
	started time.Time
	reg     *telemetry.Registry
	walM    *wal.Metrics
	shardM  *shard.Metrics
	replM   *repl.Metrics
	engine  *shard.Engine

	// handler serves each request through the handler served holds, so
	// promotion switches roles with one store.
	handler http.Handler
	served  atomic.Pointer[http.Handler]

	journal *journal.Journal // primaries and members; a follower's comes with promotion
	member  *cluster.Member  // members only
	stream  *shard.Streaming // -stream-detect only
	node    *replNode        // followers only

	bg chan struct{} // closed at shutdown to stop the background loops
	wg sync.WaitGroup
}

// newDaemon builds what every stateful role shares: the registry with
// process and fan-out metrics, and the instrumented engine.
func newDaemon(o options) (*daemon, error) {
	d := &daemon{o: o, started: time.Now(), reg: telemetry.NewRegistry(), bg: make(chan struct{})}
	d.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*d.served.Load()).ServeHTTP(w, r)
	})
	registerProcessMetrics(d.reg, d.started)
	cfg := o.coreConfig()
	cfg.Metrics = core.NewMetrics(d.reg)
	engine, err := shard.NewEngine(cfg, o.shards)
	if err != nil {
		return nil, err
	}
	d.engine = engine
	d.shardM = shard.NewMetrics(d.reg, o.shards)
	engine.SetMetrics(d.shardM)
	d.walM = wal.NewMetrics(d.reg)
	installParallelObserver(d.reg)
	return d, nil
}

// newPrimary builds the primary role: the engine recovered from -wal,
// the journal and batching router in front of it, the API server,
// replication endpoints whenever the WAL is on, and streaming
// detection under -stream-detect.
func newPrimary(o options) (*daemon, error) {
	d, err := openPrimary(o)
	if err != nil {
		return nil, err
	}
	if err := d.servePrimary(); err != nil {
		d.abort()
		return nil, err
	}
	return d, nil
}

// openPrimary recovers the engine from -wal and fronts it with the
// journal. Recovery runs before any server exists: whatever the WAL
// holds decides the starting state.
func openPrimary(o options) (*daemon, error) {
	d, err := newDaemon(o)
	if err != nil {
		return nil, err
	}
	j, stats, err := journal.Open(d.engine, d.journalConfig())
	if err != nil {
		d.abort()
		return nil, err
	}
	d.journal = j
	if stats.SnapshotRatings > 0 || stats.Applied > 0 || stats.Windows > 0 {
		fmt.Printf("recovered %d ratings, %d windows across %d shards (epoch %d)\n",
			d.engine.Len(), stats.Windows, o.shards, j.Epoch())
	}
	d.walM.ReplayedRecords.Add(uint64(stats.Applied + stats.Windows))
	return d, nil
}

// replRoutes serves the journal's logs to followers: stream, bootstrap
// snapshot and status under /v1/repl.
func (d *daemon) replRoutes(j *journal.Journal) func(*http.ServeMux) {
	if d.replM == nil {
		d.replM = repl.NewMetrics(d.reg)
	}
	return repl.NewPrimary(repl.PrimaryConfig{Journal: j, Metrics: d.replM}).Routes
}

// servePrimary serves the journal-fronted engine as a primary, the
// one way a node becomes one, natively or by promotion. The state the
// journal holds becomes the logs' baseline, streaming detection starts
// under -stream-detect, the API server is built complete, replication
// is mounted whenever the WAL is on, and the background loops start. A
// member adds its ownership checks and scan/apply routes; extra mounts
// more daemon routes. GET /v1 reports what this node serves.
func (d *daemon) servePrimary(extra ...func(*http.ServeMux)) error {
	j := d.journal
	opts := []server.Option{
		server.WithJournal(j),
		server.WithFeatures(primaryFeatures(j, d.o.streamDetect, d.member != nil)),
	}
	mounts := extra
	if j.Logs() != nil {
		// The baseline: a crash before the first background snapshot
		// replays little.
		if err := j.Snapshot(); err != nil {
			return fmt.Errorf("initial wal snapshot: %w", err)
		}
		mounts = append(mounts, d.replRoutes(j))
	}
	if d.o.streamDetect {
		alerts, err := d.enableStreaming()
		if err != nil {
			return err
		}
		opts = append(opts, server.WithAlerts(alerts))
	}
	if m := d.member; m != nil {
		opts = append(opts, server.WithCluster(m))
		mounts = append(mounts, m.Routes)
	}
	srv, err := d.newServer(opts...)
	if err != nil {
		return err
	}
	h := telemetryMux(srv, d.reg, d.o.pprof, mounts...)
	d.served.Store(&h)
	d.startBackground()
	return nil
}

// primaryFeatures is the discovery document's feature set for a
// primary over j: replication is served exactly when j has logs (the
// /v1/repl stream and snapshot routes read them).
func primaryFeatures(j *journal.Journal, streamDetect, member bool) api.DiscoveryFeatures {
	return api.DiscoveryFeatures{
		StreamIngest: true,
		StreamDetect: streamDetect,
		Replication:  j.Logs() != nil,
		Cluster:      member,
	}
}

// newServer builds the API server over the engine with the flag-set
// options plus extra, and exposes its trust state on the registry.
func (d *daemon) newServer(extra ...server.Option) (*server.Server, error) {
	opts := []server.Option{
		server.WithMaxBodyBytes(d.o.maxBody),
		server.WithRequestTimeout(d.o.reqTimeout),
		server.WithTelemetry(d.reg),
		server.WithStreamBatch(d.o.streamBatch),
	}
	if d.o.admit.MaxConcurrent > 0 {
		opts = append(opts, server.WithAdmission(d.o.admit))
	}
	srv, err := server.NewWith(d.engine, append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	registerTrustMetrics(d.reg, d.engine)
	return srv, nil
}

// enableStreaming switches online detection on after recovery, so the
// stream rebuild sees the full recovered store, and ResumeAfter — the
// recovered window high-water mark — keeps the catch-up pass from
// re-charging windows that are already durable. Windows the rating
// clock closes go through the journal, durable exactly like
// client-issued /v1/process calls. It returns the alert feed the
// server serves.
func (d *daemon) enableStreaming() (server.AlertSource, error) {
	o := d.o
	cfg := shard.StreamConfig{
		Detector: detector.Config{
			Size:      o.streamWindow,
			Step:      o.streamStep,
			Order:     o.order,
			Threshold: o.threshold,
		},
		AlertThreshold: o.alertThreshold,
		MaintainEvery:  o.maintainEvery,
		ResumeAfter:    d.engine.LastWindowEnd(),
	}
	if o.maintainEvery > 0 {
		cfg.OnWindowDue = func(start, end float64) {
			if _, err := d.journal.ProcessWindow(start, end); err != nil {
				warnf("streaming window [%g,%g): %v", start, end, err)
			}
		}
	}
	s, err := d.engine.EnableStreaming(cfg)
	if err != nil {
		return nil, err
	}
	d.stream = s
	fmt.Printf("streaming detection enabled (window %d/%d ratings, alert threshold %g, maintain every %g days, resume after %g)\n",
		o.streamWindow, o.streamStep, o.alertThreshold, o.maintainEvery, cfg.ResumeAfter)
	return alertFeed{log: s.Alerts()}, nil
}

// startBackground starts the journal loops the flags ask for: interval
// fsync and periodic snapshot+compaction. Closing d.bg stops them.
func (d *daemon) startBackground() {
	j := d.journal
	if j.Logs() == nil {
		return
	}
	if d.o.fsync == wal.SyncInterval && d.o.fsyncInterval > 0 {
		d.every(d.o.fsyncInterval, "background fsync", j.Sync)
	}
	if d.o.snapEvery > 0 {
		d.every(d.o.snapEvery, "background snapshot", j.Snapshot)
	}
}

// every runs fn at each interval tick until shutdown, warning on
// failures other than a log closed under it.
func (d *daemon) every(interval time.Duration, what string, fn func() error) {
	d.goBackground(func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.bg:
				return
			case <-t.C:
				if err := fn(); err != nil && !errors.Is(err, wal.ErrClosed) {
					warnf("%s: %v", what, err)
				}
			}
		}
	})
}

// goBackground runs f on a goroutine shutdown waits for; f must return
// once d.bg closes.
func (d *daemon) goBackground(f func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f()
	}()
}

// close is the graceful shutdown once the listener has drained: stop
// the background loops, streaming and replication, then drain the
// router into the logs and engine, rebase the logs on the final state
// and close them.
func (d *daemon) close() error {
	d.stopBackground()
	if j := d.stopRole(); j != nil {
		return j.Close()
	}
	return nil
}

// abort releases what a constructor opened without the final snapshot:
// the cleanup for a failed start, and the state a crash leaves behind.
func (d *daemon) abort() {
	d.stopBackground()
	if j := d.stopRole(); j != nil {
		j.Abort()
	}
}

// stopRole stops a follower's replication, after any promotion in
// flight, and returns the journal to release, whichever role built it.
func (d *daemon) stopRole() *journal.Journal {
	if n := d.node; n != nil {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.follower.Stop()
	}
	return d.journal
}

func (d *daemon) stopBackground() {
	close(d.bg)
	d.wg.Wait()
	if d.stream != nil {
		d.stream.Close()
	}
	parallel.SetObserver(nil)
}

// journalConfig is the journal configuration the flags set; a
// promoted follower's journal uses it too.
func (d *daemon) journalConfig() journal.Config {
	return journal.Config{
		Dir: d.o.walDir,
		WAL: wal.Options{
			Policy:       d.o.fsync,
			SegmentBytes: d.o.segmentBytes,
			Warnf:        warnf,
			Metrics:      d.walM,
		},
		BatchSize:     d.o.batchSize,
		BatchInterval: d.o.batchInterval,
		Metrics:       d.shardM,
	}
}
