package repro_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/randx"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var benchResult experiments.Result

// BenchmarkExperiments regenerates every registered experiment, one
// sub-benchmark per experiments.IDs() entry (Quick mode: shrunk
// Monte-Carlo counts, identical workload shape), with wall time and
// allocations per run. `go test -bench=Experiments -benchmem` therefore
// reruns the entire evaluation; cmd/experiments renders the same
// artifacts at full scale.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) { benchExperiment(b, id, experiments.Options{}) })
	}
}

// The Parallel variants measure the same experiment with the
// Monte-Carlo fan-out at full GOMAXPROCS width. Results are
// bit-identical to the serial run; only wall time changes.
func BenchmarkTab1DetectionRatesParallel(b *testing.B) {
	benchExperiment(b, "tab1", experiments.Options{Workers: runtime.GOMAXPROCS(0)})
}

func BenchmarkFig6TrustEvolutionParallel(b *testing.B) {
	benchExperiment(b, "fig6", experiments.Options{Workers: runtime.GOMAXPROCS(0)})
}

func benchExperiment(b *testing.B, id string, opt experiments.Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWith(id, int64(i)+1, experiments.Quick, opt)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// --- Micro-benchmarks of the hot kernels ---

var (
	sinkModel  repro.ARModel
	sinkReport repro.DetectionReport
	sinkFloat  float64
)

func benchWindow(n int) []float64 {
	rng := randx.New(42)
	x := make([]float64, n)
	for i := range x {
		x[i] = randx.Quantize(rng.NormalVar(0.7, 0.04), 11, true)
	}
	return x
}

func BenchmarkARCovarianceFit50(b *testing.B) {
	x := benchWindow(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := repro.FitAR(x, 4, repro.AROptions{Method: repro.ARCovariance})
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

func BenchmarkARCovarianceFitWS50(b *testing.B) {
	// The zero-allocation path: one warm Workspace reused across fits,
	// as the detector hot loop runs it.
	x := benchWindow(50)
	ws := new(signal.Workspace)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := signal.FitWS(x, 4, signal.Options{Method: signal.MethodCovariance}, ws)
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

func BenchmarkARYuleWalkerFit50(b *testing.B) {
	x := benchWindow(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := repro.FitAR(x, 4, repro.AROptions{Method: repro.ARYuleWalker})
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

func BenchmarkARBurgFit50(b *testing.B) {
	x := benchWindow(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := repro.FitAR(x, 4, repro.AROptions{Method: repro.ARBurg})
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

func benchTrace(b *testing.B) []repro.Rating {
	b.Helper()
	ls, err := sim.GenerateIllustrative(randx.New(7), sim.DefaultIllustrative())
	if err != nil {
		b.Fatal(err)
	}
	return sim.Ratings(ls)
}

func BenchmarkDetectIllustrativeTrace(b *testing.B) {
	rs := benchTrace(b)
	cfg := repro.DetectorConfig{Mode: repro.WindowByCount, Size: 50, Step: 25, Threshold: 0.105}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := repro.Detect(rs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = rep
	}
}

func BenchmarkDetectIllustrativeTraceWS(b *testing.B) {
	// Detection with a warm reused Workspace — the steady-state cost a
	// ProcessWindow worker pays per object.
	rs := benchTrace(b)
	cfg := repro.DetectorConfig{Mode: repro.WindowByCount, Size: 50, Step: 25, Threshold: 0.105}
	ws := detector.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := detector.DetectWS(rs, cfg, ws)
		if err != nil {
			b.Fatal(err)
		}
		sinkReport = rep
	}
}

func BenchmarkDetectorStream(b *testing.B) {
	// The online form of the same scan: the illustrative trace pushed
	// rating by rating through a fresh stream, as each object's stream
	// runs at ingest under ratingd -stream-detect.
	rs := benchTrace(b)
	cfg := repro.DetectorConfig{Mode: repro.WindowByCount, Size: 50, Step: 25, Threshold: 0.105}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := repro.NewDetectorStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if _, err := s.Push(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBetaFilter(b *testing.B) {
	rs := benchTrace(b)
	f := repro.BetaFilter{Q: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := f.Apply(rs)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = float64(len(res.Accepted))
	}
}

func BenchmarkAggregateM3(b *testing.B) {
	rng := randx.New(9)
	const n = 100
	ratings := make([]float64, n)
	trusts := make([]float64, n)
	for i := range ratings {
		ratings[i] = rng.Float64()
		trusts[i] = 0.5 + 0.5*rng.Float64()
	}
	agg := repro.ModifiedWeightedAverage{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := agg.Aggregate(ratings, trusts)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = v
	}
}

func BenchmarkSystemProcessWindow(b *testing.B) {
	rs := benchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := repro.NewSystem(repro.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.SubmitAll(rs); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ProcessWindow(0, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Telemetry overhead (ISSUE 3) ---
//
// The paired enabled/disabled benchmarks quantify the cost of the
// instrumentation layer itself; the instrumented ProcessWindow pair
// quantifies what the hot path actually pays end to end. Nothing gates
// it: BENCH_3..10 read -0.61% to 3.04%.

func BenchmarkTelemetryCounter(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryCounterDisabled(b *testing.B) {
	var r *telemetry.Registry // nil registry: the disabled path
	c := r.Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_seconds", "bench", telemetry.DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkTelemetryHistogramDisabled(b *testing.B) {
	var r *telemetry.Registry
	h := r.Histogram("bench_seconds", "bench", telemetry.DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkTelemetrySpan(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_span_seconds", "bench", telemetry.DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := h.Start()
		sp.End()
	}
}

func BenchmarkTelemetrySpanDisabled(b *testing.B) {
	var r *telemetry.Registry
	h := r.Histogram("bench_span_seconds", "bench", telemetry.DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := h.Start()
		sp.End()
	}
}

func BenchmarkSystemProcessWindowInstrumented(b *testing.B) {
	// Identical workload to BenchmarkSystemProcessWindow, with the full
	// per-stage span instrumentation live.
	rs := benchTrace(b)
	reg := telemetry.NewRegistry()
	m := core.NewMetrics(reg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{Metrics: m})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.SubmitAll(rs); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ProcessWindow(0, 60); err != nil {
			b.Fatal(err)
		}
	}
}
