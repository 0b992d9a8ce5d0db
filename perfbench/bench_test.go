package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rating"
)

// contractMetrics reads the metric names BENCHMARK.json promises.
func contractMetrics(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func buildRatingd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ratingd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ratingd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ratingd: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeEveryWorkload runs every workload at a tiny scale against a
// real daemon and in the traced replay, and checks the result carries
// every promised metric, passes its gates and, traced, that the layers
// cover the wall time.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ratingd processes")
	}
	e2e, perLayer := contractMetrics(t)
	bin := buildRatingd(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{
				workload: w.name, seed: 7, seconds: 2, trace: trace,
				ratingd: bin, work: t.TempDir(), scale: 0.02,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = perLayer
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, present %v", w.name, trace, name, m, ok)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract names %d", w.name, trace, len(res.Metrics), len(want))
			}
			if trace {
				if c := res.Metrics["trace.coverage_pct"].Value; c < 90 || c > 110 {
					t.Errorf("%s: traced layers cover %.1f%% of the wall time", w.name, c)
				}
			}
		}
	}
}

// replayInProcess ingests a tiny history into an in-process stack and
// replays the workload for a moment, leaving the runner ready for its
// gate.
func replayInProcess(t *testing.T, name string) *runner {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, 3, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	n, err := openNode(t.TempDir(), w.streamDetect, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.close)
	r.cl = inprocClient(n)
	if err := streamAll(r.cl, r.hist); err != nil {
		t.Fatal(err)
	}
	if err := r.replay(); err != nil {
		t.Fatal(err)
	}
	if r.obs.failed != 0 {
		t.Fatalf("%s: %d operations failed: %v", name, r.obs.failed, r.obs.firstErr)
	}
	if err := w.verify(r); err != nil {
		t.Fatalf("%s: gate fails on a clean run: %v", name, err)
	}
	return r
}

// TestGatesTripOnCorruption checks each oracle gate rejects a result
// that disagrees with the inputs.
func TestGatesTripOnCorruption(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(r *runner)
	}{
		{"ingest", func(r *runner) { r.obs.ackedCount++ }},
		{"ingest", func(r *runner) {
			// The oracle sees one acked rating with another value.
			for i, rt := range r.obs.acked {
				rt.Value = 1 - rt.Value
				r.obs.acked[i] = rt
				if rt.Value != 0.5 {
					return
				}
			}
		}},
		{"serve-mixed", func(r *runner) { r.obs.ackedCount-- }},
		{"serve-mixed", func(r *runner) { r.obs.written[rating.ObjectID(1<<30)] = true }},
		{"window", func(r *runner) { r.obs.windows[len(r.obs.windows)/2].resp.Observations++ }},
		{"window", func(r *runner) {
			// The oracle skips one window that charged raters.
			for i, w := range r.obs.windows {
				if w.resp.Observations > 0 {
					r.obs.windows = append(r.obs.windows[:i:i], r.obs.windows[i+1:]...)
					return
				}
			}
		}},
	}
	for _, c := range cases {
		r := replayInProcess(t, c.workload)
		c.corrupt(r)
		if err := r.w.verify(r); err == nil {
			t.Errorf("%s: gate passed a corrupted result", c.workload)
		}
	}
}

// TestAttributeAddsUp pins the self-time rule: the innermost span per
// goroutine runs, concurrent goroutines split an instant, wait layers
// count only when nothing else runs, and gaps stay uncharged.
func TestAttributeAddsUp(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &tracer{spans: []span{
		{layer: lGen, track: 1, start: 0, end: 10 * ms},
		{layer: lServer, track: 1, start: 1 * ms, end: 9 * ms},
		{layer: lRouterWait, track: 1, start: 2 * ms, end: 8 * ms},
		{layer: lWALCommit, track: 2, start: 3 * ms, end: 5 * ms},
		{layer: lShardSubmit, track: 3, start: 4 * ms, end: 6 * ms},
		{layer: lGen, track: 1, start: 11 * ms, end: 12 * ms},
	}}
	self, _ := tr.attribute(0, 12*ms)
	want := map[layer]float64{
		lGen:         3e-3,   // [0,1) [9,10) [11,12)
		lServer:      2e-3,   // [1,2) [8,9)
		lRouterWait:  3e-3,   // [2,3) [6,8): nothing else runs
		lWALCommit:   1.5e-3, // [3,4) alone, [4,5) split with the submit
		lShardSubmit: 1.5e-3, // [4,5) split, [5,6) alone
	}
	var sum float64
	for l, v := range self {
		sum += v
		if math.Abs(v-want[layer(l)]) > 1e-12 {
			t.Errorf("%s: %g s, want %g", layerNames[l], v, want[layer(l)])
		}
	}
	if math.Abs(sum-11e-3) > 1e-12 {
		t.Errorf("charged %g s of 12 ms with a 1 ms gap, want 11 ms", sum)
	}
}

// TestSteadySkipsWarmUp: throughput and percentiles count only what
// completed after the warm-up share of the replay.
func TestSteadySkipsWarmUp(t *testing.T) {
	o := &observations{elapsed: 10}
	o.samples = append(o.samples, sample{done: 1, lat: 9, units: 100})
	for i := 0; i < 8; i++ {
		o.samples = append(o.samples, sample{done: 2 + float64(i), lat: float64(i + 1), units: 1})
	}
	tput, p50, p90 := o.steady()
	if tput != 1 || p50 != 4.5 || math.Abs(p90-7.3) > 1e-12 {
		t.Fatalf("steady = %g/s, p50 %g, p90 %g; want 1/s, 4.5, 7.3", tput, p50, p90)
	}
}

// TestInputsDeterministic: the same seed gives the same inputs.
func TestInputsDeterministic(t *testing.T) {
	w, _ := findWorkload("window")
	a, err := newRunner(w, 5, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRunner(w, 5, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.hist) == 0 || !equalRatings(a.hist, b.hist) {
		t.Fatal("history differs between runners with one seed")
	}
	s, _ := findWorkload("serve-mixed")
	x, _ := newRunner(s, 5, 1, 0.01)
	y, _ := newRunner(s, 5, 1, 0.01)
	ox, oy := x.serveMixedOps(2), y.serveMixedOps(2)
	if len(ox) == 0 || fmt.Sprint(ox) != fmt.Sprint(oy) {
		t.Fatal("open-loop schedule differs between runners with one seed")
	}
}

func equalRatings(a, b []rating.Rating) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
