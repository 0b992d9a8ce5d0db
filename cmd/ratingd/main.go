// Command ratingd serves the trust-enhanced rating system over HTTP.
//
//	ratingd -addr :8080
//	ratingd -addr :8080 -wal ./wal             # crash-safe: log + recover
//	ratingd -addr :8080 -wal ./wal -shards 4   # four shard workers
//
// Every stateful role serves the sharded engine (a single shard is
// byte-identical to the core.System oracle) behind a batching router.
// With -wal, every accepted rating batch and maintenance window is
// written to per-shard append-only, checksummed logs before it is
// applied, and startup recovers state by loading each shard's latest
// durable snapshot and replaying the log tails — tolerating a torn
// final record from a crash. Periodic snapshots compact the logs in
// the background; the WAL is the daemon's only persistence.
//
// Endpoints are documented in internal/server (wire types in
// internal/api). Example session:
//
//	curl -X POST localhost:8080/v1/ratings -d '[{"rater":1,"object":42,"value":0.8,"time":3.5}]'
//	curl -X POST localhost:8080/v1/ratings:stream --data-binary @ratings.ndjson
//	curl -X POST localhost:8080/v1/process -d '{"start":0,"end":30}'
//	curl localhost:8080/v1/objects/42/aggregate
//	curl localhost:8080/v1/raters/1/trust
//	curl 'localhost:8080/v1/malicious?offset=0&limit=100'
//
// Every read is computed from the engine's current state; mutating
// routes can shed under overload with typed 429s once -admit-max is
// set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/server"
	"repro/internal/trust"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ratingd:", err)
		os.Exit(1)
	}
}

// run parses the command line, builds the role it names and serves it
// until interrupted.
func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.promote != "" {
		return promoteRemote(o.promote)
	}
	if o.route {
		return runRouter(o)
	}
	var d *daemon
	switch {
	case o.follow != "":
		d, err = newFollower(o)
	case o.cluster != "":
		d, err = newMember(o)
	default:
		d, err = newPrimary(o)
	}
	if err != nil {
		return err
	}
	if o.telemetryInterval > 0 {
		d.goBackground(func() { summaryLoop(d.bg, o.telemetryInterval, d.reg, d.engine, d.started) })
	}
	banner := "ratingd listening on " + o.addr
	if d.member != nil {
		t := d.member.Table()
		banner += fmt.Sprintf("\ncluster member %s (epoch %d, %d nodes)", o.clusterSelf, t.Epoch, len(t.Nodes))
	}
	err = serve(o.addr, d.handler, banner)
	return errors.Join(err, d.close())
}

// options is the parsed ratingd command line.
type options struct {
	addr string

	threshold, width, step float64
	order                  int
	b, forget              float64

	streamDetect             bool
	streamWindow, streamStep int
	alertThreshold           float64
	maintainEvery            float64

	shards        int
	batchSize     int
	batchInterval time.Duration

	walDir        string
	fsync         wal.SyncPolicy
	fsyncInterval time.Duration
	segmentBytes  int64
	snapEvery     time.Duration

	reqTimeout  time.Duration
	maxBody     int64
	streamBatch int
	admit       server.AdmissionConfig // MaxConcurrent 0 disables admission control

	route        bool
	cluster      string // comma-separated member URLs
	clusterSelf  string
	clusterEpoch uint64

	follow        string
	maxLag        time.Duration
	maxLagRecords uint64
	promoteAfter  time.Duration
	promote       string
	replSeed      int64

	pprof             bool
	telemetryInterval time.Duration
}

// coreConfig is the detection and trust configuration the flags set.
func (o options) coreConfig() core.Config {
	return core.Config{
		Detector: detector.Config{Width: o.width, TimeStep: o.step, Order: o.order, Threshold: o.threshold},
		Trust:    trust.ManagerConfig{B: o.b, Forgetting: o.forget},
	}
}

// parseFlags parses and cross-checks the command line.
func parseFlags(args []string) (options, error) {
	var (
		o         options
		fsyncMode string
	)
	fs := flag.NewFlagSet("ratingd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&o.threshold, "threshold", 0.1, "detector model-error threshold")
	fs.Float64Var(&o.width, "width", 10, "detector window width (days)")
	fs.Float64Var(&o.step, "step", 5, "detector window step (days)")
	fs.IntVar(&o.order, "order", 4, "AR model order")
	fs.Float64Var(&o.b, "b", 1, "Procedure 2's b (suspicion weight)")
	fs.Float64Var(&o.forget, "forget", 1, "per-day trust forgetting factor")

	fs.BoolVar(&o.streamDetect, "stream-detect", false, "online streaming detection: per-object detector streams fed at submit time, alerts on /v1/alerts")
	fs.IntVar(&o.streamWindow, "stream-window", 50, "streaming detector: ratings per count window")
	fs.IntVar(&o.streamStep, "stream-step", 25, "streaming detector: ratings between window starts")
	fs.Float64Var(&o.alertThreshold, "alert-threshold", 0.5, "accrued suspicion at which a rater is alerted")
	fs.Float64Var(&o.maintainEvery, "maintain-every", 0, "streaming: auto-close an authoritative maintenance window every this many rating-days; 0 leaves windows to /v1/process")

	fs.IntVar(&o.shards, "shards", 1, "shard workers partitioning state by object")
	fs.IntVar(&o.batchSize, "batch", 256, "ratings coalesced per shard flush (group commit)")
	fs.DurationVar(&o.batchInterval, "batch-interval", 2*time.Millisecond, "max wait before a partial streamed batch flushes; unary submits flush at once unless the shard's last flush was full")

	fs.StringVar(&o.walDir, "wal", "", "write-ahead-log directory; empty disables the WAL")
	fs.StringVar(&fsyncMode, "fsync", "always", "WAL fsync policy: always|interval|never")
	fs.DurationVar(&o.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync interval")
	fs.Int64Var(&o.segmentBytes, "wal-segment-bytes", 4<<20, "WAL segment rotation size")
	fs.DurationVar(&o.snapEvery, "snap-every", 5*time.Minute, "background snapshot+compaction cadence; 0 disables")

	fs.DurationVar(&o.reqTimeout, "request-timeout", 30*time.Second, "per-request handling timeout, and on a -route node each member call's; 0 disables")
	fs.Int64Var(&o.maxBody, "max-body-bytes", 8<<20, "maximum request body size")

	fs.IntVar(&o.streamBatch, "stream-batch", 512, "ratings coalesced per group-commit submit on /v1/ratings:stream")
	fs.IntVar(&o.admit.MaxConcurrent, "admit-max", 0, "mutating requests allowed to execute at once; 0 disables admission control")
	fs.IntVar(&o.admit.MaxQueue, "admit-queue", 0, "mutating requests that may queue for a slot beyond -admit-max")
	fs.DurationVar(&o.admit.MaxWait, "admit-wait", 250*time.Millisecond, "longest a queued mutating request waits for a slot before a 429 shed")
	fs.DurationVar(&o.admit.RetryAfter, "admit-retry-after", 0, "Retry-After hint on shed responses; 0 derives it from -admit-wait")

	fs.BoolVar(&o.route, "route", false, "run as a stateless cluster router: forward single-object traffic to the keyspace owner in -cluster and scatter-gather cross-object reads")
	fs.StringVar(&o.cluster, "cluster", "", "comma-separated member base URLs; the 2^32 keyspace splits evenly across them in list order")
	fs.StringVar(&o.clusterSelf, "cluster-self", "", "member mode: this node's own base URL exactly as it appears in -cluster")
	fs.Uint64Var(&o.clusterEpoch, "cluster-epoch", 1, "routing-table version; requests pinning another epoch are refused with a typed 409 stale_epoch")

	fs.StringVar(&o.follow, "follow", "", "run as a bounded-staleness read replica of this primary base URL")
	fs.DurationVar(&o.maxLag, "max-lag", 0, "replica: refuse reads (typed 503 replica_stale) once replicated state is older than this; 0 disables")
	fs.Uint64Var(&o.maxLagRecords, "max-lag-records", 0, "replica: refuse reads once this many records behind the primary; 0 disables")
	fs.DurationVar(&o.promoteAfter, "promote-after", 0, "replica: self-promote to primary once the primary has been silent this long; 0 disables")
	fs.StringVar(&o.promote, "promote", "", "one-shot: promote the ratingd follower at this base URL to primary, then exit")
	fs.Int64Var(&o.replSeed, "repl-seed", 0, "replica: reconnect-jitter seed; 0 derives one from the clock so identically-launched followers still diverge")

	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.DurationVar(&o.telemetryInterval, "telemetry-interval", 0, "print a summary line to stderr at this cadence; 0 disables")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	switch fsyncMode {
	case "always":
		o.fsync = wal.SyncAlways
	case "interval":
		o.fsync = wal.SyncInterval
	case "never":
		o.fsync = wal.SyncNever
	default:
		return o, fmt.Errorf("unknown -fsync policy %q", fsyncMode)
	}
	if o.batchInterval < 0 {
		// Size-only flushing would strand a tail below -batch until
		// unrelated traffic arrives, blocking its submitter.
		return o, fmt.Errorf("-batch-interval %v: must not be negative", o.batchInterval)
	}
	if o.batchSize < 0 {
		return o, fmt.Errorf("-batch %d: must not be negative", o.batchSize)
	}
	if o.segmentBytes < 0 {
		// Every append would find its segment full and rotate.
		return o, fmt.Errorf("-wal-segment-bytes %d: must not be negative", o.segmentBytes)
	}
	if o.fsync == wal.SyncInterval && o.fsyncInterval <= 0 {
		// The background fsync loop needs a positive cadence; without
		// one, appended records would never be fsynced.
		return o, fmt.Errorf("-fsync-interval %v: must be positive under -fsync interval", o.fsyncInterval)
	}
	o.clusterSelf = strings.TrimRight(o.clusterSelf, "/")
	o.follow = strings.TrimRight(o.follow, "/")
	switch {
	case o.promote != "":
		// The one-shot promote client ignores every other flag.
	case o.route && o.cluster == "":
		return o, errors.New("-route needs the member list: -cluster url1,url2,...")
	case o.cluster != "" && o.follow != "":
		return o, errors.New("-cluster and -follow are mutually exclusive; cluster members replicate trust through the router's apply broadcast")
	case o.cluster != "" && !o.route && o.clusterSelf == "":
		return o, errors.New("-cluster without -route runs a member; name this node's own URL with -cluster-self")
	case o.streamDetect && o.follow != "":
		// Alerts reflect live detection state, which only the primary
		// computes; followers refuse /v1/alerts with 421 not_primary.
		return o, errors.New("-stream-detect runs on primaries only; drop -follow or detect on the primary")
	case o.maintainEvery > 0 && !o.streamDetect:
		// Only the streaming rating clock closes these windows.
		return o, errors.New("-maintain-every needs -stream-detect")
	case o.maintainEvery > 0 && o.cluster != "" && !o.route:
		// A local window would charge trust from this member's objects
		// only, and a member WAL must never hold a barrier.
		return o, errors.New("-maintain-every on a cluster member: maintenance windows run through the cluster router")
	}
	return o, nil
}

// serve runs h on addr until SIGINT or SIGTERM, then stops accepting
// and drains in-flight requests for up to five seconds. Every role
// serves through it.
func serve(addr string, h http.Handler, banner string) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Println(banner)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	select {
	case err := <-errCh:
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "ratingd: "+format+"\n", a...)
}
