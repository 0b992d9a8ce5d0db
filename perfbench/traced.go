package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// runTraced replays the workload twice against fresh in-process stacks
// recovered from copies of the prepared directory: once with spans
// off and once with spans on. The spans-on replay gives the per-layer
// metrics and is checked by the same gates as the daemon run; the
// difference in mean operation latency between the two is the tracing
// overhead.
func runTraced(r *runner, tmpl, dir string) (result, error) {
	// One P more than the CPUs, so the open-loop dispatcher never queues
	// for a P behind the in-process stack's CPU-bound goroutines; the
	// daemon run gets the same separation from being another process.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	off, err := tracedReplay(r, tmpl, filepath.Join(dir, "off"), nil)
	if err != nil {
		return result{}, fmt.Errorf("spans-off replay: %w", err)
	}
	offLat := mean(off.obs.lats())
	tr := newTracer()
	on, err := tracedReplay(r, tmpl, filepath.Join(dir, "on"), tr)
	if err != nil {
		return result{}, fmt.Errorf("traced replay: %w", err)
	}
	m := on.metrics
	m["trace.overhead_pct"] = metric{100 * (mean(on.obs.lats())/offLat - 1), "%"}
	res := r.result(on.gate)
	res.Metrics = m
	report(r, res, "")
	return res, nil
}

type tracedRun struct {
	obs     *observations
	metrics map[string]metric
	gate    error
}

func tracedReplay(r *runner, tmpl, root string, tr *tracer) (tracedRun, error) {
	if err := copyTree(tmpl, root); err != nil {
		return tracedRun{}, err
	}
	n, err := openNode(root, r.w.streamDetect, tr)
	if err != nil {
		return tracedRun{}, err
	}
	defer n.close()
	r.cl, r.tr = inprocClient(n), tr
	defer func() { r.tr = nil }()
	before := n.counters()
	var from int64
	if tr != nil {
		from = tr.now()
	}
	if err := r.replay(); err != nil {
		return tracedRun{}, err
	}
	out := tracedRun{obs: r.obs}
	if tr == nil {
		return out, nil
	}
	to := tr.now()
	// Settle background flushes before reading counters and disk.
	if err := n.router.Flush(); err != nil {
		return tracedRun{}, err
	}
	out.metrics = layerMetrics(r, tr, from, to, n.counters().minus(before), n)
	out.gate = r.w.verify(r)
	return out, nil
}

// counters are the stack's own cumulative counts; a replay's share is
// the difference across it, so recovery's work is not counted.
type counters struct {
	filter, fit        float64 // core stage seconds
	hits, misses       float64 // aggregate read-cache lookups
	flushes, flushed   float64 // router batches and their ratings
	fsyncs, appended   float64
	aggCalls           float64
	pushed, late, shed float64 // streaming detection intake
	walBytes           float64
}

func (n *node) counters() counters {
	stages := n.reg.HistogramVec("pipeline_stage_seconds", "", telemetry.DefLatencyBuckets, "stage")
	cache := n.reg.CounterVec("http_read_cache_total", "", "kind", "result")
	c := counters{
		filter:   stages.With(core.StageFilter).Sum(),
		fit:      stages.With(core.StageARFit).Sum(),
		hits:     float64(cache.With("aggregate", "hit").Value()),
		misses:   float64(cache.With("aggregate", "miss").Value()),
		flushes:  float64(n.shardM.BatchesTotal.Total()),
		flushed:  float64(n.shardM.RatingsTotal.Total()),
		fsyncs:   float64(n.walM.FsyncSeconds.Count()),
		appended: float64(n.walM.AppendedRecords.Value()),
		aggCalls: float64(n.engine.calls.Load()),
		walBytes: float64(dirBytes(n.walDir)),
	}
	if n.streaming != nil {
		st := n.streaming.Stats()
		c.pushed, c.late, c.shed = float64(st.Pushed), float64(st.LateDropped), float64(st.Shed)
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		filter: c.filter - b.filter, fit: c.fit - b.fit,
		hits: c.hits - b.hits, misses: c.misses - b.misses,
		flushes: c.flushes - b.flushes, flushed: c.flushed - b.flushed,
		fsyncs: c.fsyncs - b.fsyncs, appended: c.appended - b.appended,
		aggCalls: c.aggCalls - b.aggCalls,
		pushed:   c.pushed - b.pushed, late: c.late - b.late, shed: c.shed - b.shed,
		walBytes: c.walBytes - b.walBytes,
	}
}

// layerMetrics turns the spans and the stack's counters into the
// per-layer metrics: each layer's self time in seconds of the replay's
// wall time, plus counts and ratios. core's stage spans (recorded by
// core.Metrics inside the window scan) are carved out of the span that
// contains them.
func layerMetrics(r *runner, tr *tracer, from, to int64, c counters, n *node) map[string]metric {
	wall := float64(to-from) / 1e9
	self, raw := tr.attribute(from, to)
	// The stage spans run inside ProcessWindow's; when other goroutines
	// share the CPU, the window span gets only part of its raw time, and
	// the stages get the same part of theirs.
	var coreFilter, coreFit float64
	if raw[lShardWindow] > 0 {
		f := self[lShardWindow] / raw[lShardWindow]
		coreFilter, coreFit = c.filter*f, c.fit*f
		self[lShardWindow] = max(0, self[lShardWindow]-coreFilter-coreFit)
	}

	var covered float64
	for _, v := range self {
		covered += v
	}
	covered += coreFilter + coreFit
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var objects, suspicious, windows float64
	for _, w := range r.obs.windows {
		if w.ok {
			windows++
			objects += float64(w.resp.Objects)
			suspicious += float64(w.resp.Suspicious)
		}
	}

	m := map[string]metric{
		"gen.late_p99_ms":                {1000 * quantile(r.obs.late, 0.99), "ms"},
		"server.busy_s":                  {self[lServer] + self[lServerStream], "s"},
		"server.stream_ns_per_rating":    {ratio(1e9*self[lServerStream], float64(r.obs.ackedCount)), "ns"},
		"server.read_cache_hit_ratio":    {ratio(c.hits, c.hits+c.misses), "ratio"},
		"server.refused":                 {float64(r.obs.failed), "count"},
		"shard.router.flushes":           {c.flushes, "count"},
		"shard.router.ratings_per_flush": {ratio(c.flushed, c.flushes), "count"},
		"wal.ratings_per_fsync":          {ratio(c.appended, c.fsyncs), "ratio"},
		"wal.bytes_per_rating":           {ratio(c.walBytes, c.flushed), "B"},
		"wal.open_s":                     {n.openS, "s"},
		"shard.recover_s":                {n.recoverS, "s"},
		"shard.aggregate_calls":          {c.aggCalls, "count"},
		"shard.stream.pushed":            {c.pushed, "count"},
		"shard.stream.late_ratio":        {ratio(c.late, c.pushed+c.late+c.shed), "ratio"},
		"shard.stream.shed":              {c.shed, "count"},
		"core.filter_s":                  {coreFilter, "s"},
		"core.ar_fit_s":                  {coreFit, "s"},
		"core.objects_per_window":        {ratio(objects, windows), "count"},
		"core.suspicious_windows":        {suspicious, "count"},
		"trace.wall_s":                   {wall, "s"},
		"trace.coverage_pct":             {100 * covered / wall, "%"},
	}
	for l := layer(0); l < numLayers; l++ {
		switch l {
		case lServer, lServerStream: // server.busy_s covers both
		case lGen:
			m["gen.self_s"] = metric{self[l], "s"}
		default:
			m[layerNames[l]+"_s"] = metric{self[l], "s"}
		}
	}
	return m
}
