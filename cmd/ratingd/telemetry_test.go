package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// newInstrumentedStack builds a single-shard durable primary — the
// daemon's default shape — and serves its full observability mux on an
// httptest listener.
func newInstrumentedStack(t *testing.T, pprofOn bool) *httptest.Server {
	t.Helper()
	args := []string{"-wal", t.TempDir(), "-fsync", "never"}
	if pprofOn {
		args = append(args, "-pprof")
	}
	d := build(t, newPrimary, args...)
	t.Cleanup(func() { closeDaemon(t, d) })
	ts := httptest.NewServer(d.handler)
	t.Cleanup(ts.Close)
	return ts
}

// TestMetricsEndpointCoversAllSubsystems is the acceptance check for
// the telemetry layer: after real traffic, /metrics must return valid
// Prometheus text exposing server, WAL, pipeline, trust, parallel, and
// process metrics.
func TestMetricsEndpointCoversAllSubsystems(t *testing.T) {
	ts := newInstrumentedStack(t, false)

	// Drive traffic: submit ratings across two objects, run a window.
	var body strings.Builder
	body.WriteString("[")
	for i := 0; i < 120; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		sign := i % 2
		body.WriteString(`{"rater":` + itoa(i%12) + `,"object":` + itoa(41+sign) +
			`,"value":0.7,"time":` + itoa(i/4) + `}`)
	}
	body.WriteString("]")
	resp, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/process", "application/json", strings.NewReader(`{"start":0,"end":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("process = %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		// Server.
		`http_requests_total{route="/v1/ratings",code="200"} 1`,
		`http_requests_total{route="/v1/process",code="200"} 1`,
		`http_request_seconds_bucket{route="/v1/process",le="+Inf"} 1`,
		"http_inflight_requests 0",
		// WAL: every rating is its own record, plus one barrier record.
		// The startup baseline snapshot rotated the log to segment 1.
		"wal_appended_records_total 121",
		"wal_fsync_seconds_count",
		"wal_segment_seq 1",
		// Pipeline.
		"pipeline_windows_total 1",
		`pipeline_stage_seconds_count{stage="ar_fit"} 2`,
		"pipeline_ratings_considered_total 120",
		// Trust: 12 raters all got records; last bin is cumulative-total.
		"trust_raters 12",
		`trust_records{le="1"} 12`,
		// Parallel fan-out observed via the bridge: the startup WAL open
		// and baseline snapshot (one shard log each) and the window scan
		// (two objects).
		"parallel_items_total 4",
		"parallel_runs_total 3",
		// Process gauges.
		"process_uptime_seconds",
		"process_goroutines",
		"process_heap_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// Every sample line must parse: name{labels} value.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestMetricsCatalogue keeps DESIGN.md's "Metrics catalogue" and the
// code in step. A -wal -stream-detect primary registers every family
// the code has; each name it exposes on /metrics needs a backticked
// row in the table, and every name a row gives must be exposed.
func TestMetricsCatalogue(t *testing.T) {
	d := build(t, newPrimary, "-wal", t.TempDir(), "-fsync", "never", "-stream-detect")
	t.Cleanup(func() { closeDaemon(t, d) })
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exposed := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = true
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(design), "### Metrics catalogue\n")
	table, _, _ = strings.Cut(table, "\n###")
	name := regexp.MustCompile("`([a-z_]+)`")
	documented := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
			if !exposed[m[1]] {
				t.Errorf("DESIGN.md catalogue row %q names %s, which no code registers", strings.TrimSpace(row), m[1])
			}
		}
	}
	for n := range exposed {
		if !documented[n] {
			t.Errorf("%s is registered but has no row in DESIGN.md's metrics catalogue", n)
		}
	}
	if len(exposed) == 0 || len(documented) == 0 {
		t.Fatalf("exposed %d names, catalogue %d: nothing compared", len(exposed), len(documented))
	}
}

// TestDebugVarsIsValidJSON scrapes /debug/vars and decodes it.
func TestDebugVarsIsValidJSON(t *testing.T) {
	ts := newInstrumentedStack(t, false)
	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"http_inflight_requests", "process_goroutines", "wal_segment_seq"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
}

// TestPprofGating checks /debug/pprof/ is only mounted behind -pprof.
func TestPprofGating(t *testing.T) {
	on := newInstrumentedStack(t, true)
	resp, err := on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof enabled but index = %d", resp.StatusCode)
	}

	off := newInstrumentedStack(t, false)
	resp, err = off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof reachable without -pprof")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
