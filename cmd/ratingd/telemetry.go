package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// trustBounds are the cumulative "le" bins for the live trust-record
// distribution exposed as trust_records{le="..."}.
var trustBounds = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}

// registerProcessMetrics adds process-level gauges: uptime, goroutine
// count, and heap usage, all sampled at scrape time.
func registerProcessMetrics(reg *telemetry.Registry, started time.Time) {
	reg.GaugeFunc("process_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(started).Seconds() })
	reg.GaugeFunc("process_goroutines", "current goroutine count",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("process_heap_bytes", "bytes of allocated heap objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// registerTrustMetrics exposes the live trust state: rater count and a
// cumulative distribution of trust values, both read from the engine's
// Stats at scrape time. An engine's reads never fail, so the gauges
// take no error path.
func registerTrustMetrics(reg *telemetry.Registry, eng *shard.Engine) {
	reg.GaugeFunc("trust_raters", "raters with a live trust record",
		func() float64 {
			st, _ := eng.Stats(nil)
			return float64(st.Raters)
		})
	reg.GaugeVecFunc("trust_records", "cumulative count of raters with trust <= le", "le",
		func() map[string]float64 {
			st, _ := eng.Stats(trustBounds)
			out := make(map[string]float64, len(st.Distribution))
			for i, n := range st.Distribution {
				out[fmt.Sprintf("%g", trustBounds[i])] = float64(n)
			}
			return out
		})
}

// installParallelObserver bridges internal/parallel's fan-out reports
// into the registry: items processed, runs, and per-run worker
// utilization (busy time over wall time x pool width).
func installParallelObserver(reg *telemetry.Registry) {
	items := reg.Counter("parallel_items_total", "items processed by parallel fan-out")
	runs := reg.Counter("parallel_runs_total", "parallel fan-out invocations")
	util := reg.Histogram("parallel_worker_utilization",
		"per-run worker busy fraction: busy/(wall*workers)",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
	itemsPerSec := reg.Gauge("parallel_items_per_second", "throughput of the most recent fan-out")
	parallel.SetObserver(func(r parallel.Report) {
		items.Add(uint64(r.Items))
		runs.Inc()
		if r.Wall > 0 && r.Workers > 0 {
			util.Observe(r.Busy.Seconds() / (r.Wall.Seconds() * float64(r.Workers)))
			itemsPerSec.Set(float64(r.Items) / r.Wall.Seconds())
		}
	})
}

// telemetryMux mounts the observability endpoints next to the API:
// Prometheus text at /metrics, an expvar-style JSON dump at
// /debug/vars, and — only when enabled — the pprof profile handlers.
// extra, when non-nil, mounts additional daemon-level routes (the
// replication endpoints) ahead of the API catch-all.
func telemetryMux(api http.Handler, reg *telemetry.Registry, enablePprof bool, extra ...func(*http.ServeMux)) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", reg.JSONHandler())
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for _, mount := range extra {
		if mount != nil {
			mount(mux)
		}
	}
	mux.Handle("/", api)
	return mux
}

// summaryLoop prints a one-line operational summary to stderr every
// interval until done is closed.
func summaryLoop(done <-chan struct{}, interval time.Duration, reg *telemetry.Registry, eng *shard.Engine, started time.Time) {
	requests := reg.CounterVec("http_requests_total", "requests by route and status", "route", "code")
	windows := reg.Counter("pipeline_windows_total", "maintenance windows processed")
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			st, _ := eng.Stats(nil) // an engine's reads never fail
			fmt.Fprintf(os.Stderr,
				"ratingd: up %s  requests=%d  windows=%d  ratings=%d  raters=%d  goroutines=%d  heap=%.1fMiB\n",
				time.Since(started).Round(time.Second), requests.Total(), windows.Value(),
				st.Ratings, st.Raters, runtime.NumGoroutine(), float64(ms.HeapAlloc)/(1<<20))
		}
	}
}
