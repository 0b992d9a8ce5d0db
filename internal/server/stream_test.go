package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/telemetry"
)

// streamBody renders payloads as NDJSON.
func streamBody(payloads []api.RatingPayload) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, p := range payloads {
		_ = enc.Encode(p)
	}
	return b.String()
}

func seededPayloads(n int, seed int64) []api.RatingPayload {
	rng := randx.New(seed)
	ps := make([]api.RatingPayload, n)
	for i := range ps {
		ps[i] = api.RatingPayload{
			Rater:  rng.Intn(40) + 1,
			Object: rng.Intn(8),
			Value:  math.Round(rng.Float64()*1000) / 1000,
			Time:   float64(i) / 10,
		}
	}
	return ps
}

func TestStreamAcceptsAll(t *testing.T) {
	_, ts, client := newTestServer(t)
	_ = ts
	payloads := seededPayloads(1000, 7)
	sum, rejects, err := client.SubmitStream(context.Background(), strings.NewReader(streamBody(payloads)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejects) != 0 {
		t.Fatalf("rejects = %v", rejects)
	}
	if sum.Accepted != 1000 || sum.Rejected != 0 || sum.Lines != 1000 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestStreamConformance proves the streaming path leaves the backend in
// the exact state the unary path does: same ratings in, bit-identical
// aggregates, trust values, and malicious list out.
func TestStreamConformance(t *testing.T) {
	payloads := seededPayloads(2000, 42)

	_, _, unary := newTestServer(t)
	_, _, stream := newTestServer(t)
	ctx := context.Background()

	if _, err := unary.Submit(ctx, payloads); err != nil {
		t.Fatal(err)
	}
	sum, _, err := stream.SubmitStream(ctx, strings.NewReader(streamBody(payloads)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != len(payloads) {
		t.Fatalf("stream accepted %d of %d", sum.Accepted, len(payloads))
	}

	if _, err := unary.Process(ctx, 0, 300); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Process(ctx, 0, 300); err != nil {
		t.Fatal(err)
	}

	for obj := 0; obj < 8; obj++ {
		a, errA := unary.Aggregate(ctx, obj)
		b, errB := stream.Aggregate(ctx, obj)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("object %d: unary err %v, stream err %v", obj, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a != b || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("object %d: unary %+v != stream %+v", obj, a, b)
		}
	}
	for rater := 1; rater <= 40; rater++ {
		a, _ := unary.Trust(ctx, rater)
		b, _ := stream.Trust(ctx, rater)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("rater %d: trust %g != %g", rater, a, b)
		}
	}
	ma, _ := unary.Malicious(ctx)
	mb, _ := stream.Malicious(ctx)
	if fmt.Sprint(ma) != fmt.Sprint(mb) {
		t.Fatalf("malicious: unary %v != stream %v", ma, mb)
	}
}

func TestStreamRejectsBadLinesIndividually(t *testing.T) {
	srv, _, client := newTestServer(t)
	body := strings.Join([]string{
		`{"rater":1,"object":1,"value":0.5,"time":1}`,
		`{"rater":2,"object":1,"value":7,"time":1}`, // out of range
		`not json at all`,
		``, // blank: not a rating, but still a counted physical line
		`{"rater":3,"object":1,"value":0.25,"time":2}`,
		`{"rater":4,"object":1,"value":0.5,"time":3,"extra":true}`, // unknown field
	}, "\n")
	sum, rejects, err := client.SubmitStream(context.Background(), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Lines != 6 || sum.Accepted != 2 || sum.Rejected != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	wantLines := []int{2, 3, 6}
	if len(rejects) != len(wantLines) {
		t.Fatalf("rejects = %+v", rejects)
	}
	for i, re := range rejects {
		if re.Line != wantLines[i] || re.Code != api.CodeBadRequest || re.Message == "" {
			t.Fatalf("reject %d = %+v", i, re)
		}
	}
	if got := storedRatings(t, srv); got != 2 {
		t.Fatalf("backend holds %d ratings, want 2", got)
	}
}

func TestStreamCRLFAndTrailingNewline(t *testing.T) {
	_, _, client := newTestServer(t)
	body := "{\"rater\":1,\"object\":1,\"value\":0.5,\"time\":1}\r\n" +
		"{\"rater\":2,\"object\":1,\"value\":0.6,\"time\":2}\n\n"
	sum, rejects, err := client.SubmitStream(context.Background(), strings.NewReader(body))
	if err != nil || len(rejects) != 0 {
		t.Fatalf("err=%v rejects=%v", err, rejects)
	}
	// Lines counts physical framing: two ratings plus the blank line
	// the trailing "\n\n" produces.
	if sum.Accepted != 2 || sum.Lines != 3 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestStreamOversizeLineTerminates(t *testing.T) {
	_, _, client := newTestServer(t)
	body := `{"rater":1,"object":1,"value":0.5,"time":1}` + "\n" +
		`{"rater":2,"object":1,"value":0.5,"padding":"` + strings.Repeat("x", maxStreamLineBytes+16) + `"}`
	sum, _, err := client.SubmitStream(context.Background(), strings.NewReader(body))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("err = %v", err)
	}
	// The valid first line was already examined; the summary says so.
	if sum.Lines != 1 || sum.Code != api.CodeBadRequest {
		t.Fatalf("summary = %+v", sum)
	}
}

// asyncJournal implements Journal + AsyncSubmitter and checks the
// caller honors the "slice reusable after return" contract by stashing
// a fingerprint of every batch at enqueue time.
type asyncJournal struct {
	sys Backend

	mu      sync.Mutex
	batches [][]rating.Rating
	waits   int
	fail    error // SubmitAsync refuses to enqueue
	waitErr error // wait applies the batch, then reports failure
}

func (j *asyncJournal) SubmitAll(rs []rating.Rating) error { return j.sys.SubmitAll(rs) }

func (j *asyncJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	return j.sys.ProcessWindow(start, end)
}

func (j *asyncJournal) Restore(r io.Reader) error { return j.sys.LoadSnapshot(r) }

func (j *asyncJournal) SubmitAsync(rs []rating.Rating) (func() error, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return nil, j.fail
	}
	batch := append([]rating.Rating(nil), rs...)
	j.batches = append(j.batches, batch)
	return func() error {
		j.mu.Lock()
		j.waits++
		we := j.waitErr
		j.mu.Unlock()
		if err := j.sys.SubmitAll(batch); err != nil {
			return err
		}
		// A waitErr batch is applied anyway, simulating a multi-shard
		// flush that failed on one shard after landing on others.
		return we
	}, nil
}

func newAsyncServer(t *testing.T, j *asyncJournal, opts ...Option) (*Server, *Client) {
	t.Helper()
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
		append([]Option{WithJournal(j)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	j.sys = srv.System()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

func TestStreamUsesAsyncJournal(t *testing.T) {
	j := &asyncJournal{}
	srv, client := newAsyncServer(t, j, WithStreamBatch(64))
	payloads := seededPayloads(300, 3)
	sum, _, err := client.SubmitStream(context.Background(), strings.NewReader(streamBody(payloads)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != 300 {
		t.Fatalf("summary = %+v", sum)
	}
	j.mu.Lock()
	batches, waits := len(j.batches), j.waits
	total := 0
	for _, b := range j.batches {
		total += len(b)
	}
	j.mu.Unlock()
	if batches != (300+63)/64 || waits != batches || total != 300 {
		t.Fatalf("batches=%d waits=%d total=%d", batches, waits, total)
	}
	if got := storedRatings(t, srv); got != 300 {
		t.Fatalf("backend holds %d", got)
	}
}

func TestStreamAsyncSubmitFailureIsTerminal(t *testing.T) {
	j := &asyncJournal{fail: errors.New("wal down")}
	_, client := newAsyncServer(t, j, WithStreamBatch(8))
	payloads := seededPayloads(64, 5)
	sum, _, err := client.SubmitStream(context.Background(), strings.NewReader(streamBody(payloads)))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
	if sum.Accepted != 0 || sum.Code != api.CodeUnavailable {
		t.Fatalf("summary = %+v", sum)
	}
}

// errAfterReader yields data, then fails — a client disconnecting
// mid-stream as the server's body reader sees it.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// streamDirect drives the stream endpoint through ServeHTTP with an
// arbitrary body reader and returns the parsed summary.
func streamDirect(t *testing.T, srv *Server, body io.Reader) api.StreamSummary {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/ratings:stream", body)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var sum api.StreamSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("summary %q: %v", lines[len(lines)-1], err)
	}
	return sum
}

// primeAggregate seeds object 1, runs a window, and reads its
// aggregate.
func primeAggregate(t *testing.T, client *Client) api.AggregateResponse {
	t.Helper()
	ctx := context.Background()
	seed := make([]api.RatingPayload, 10)
	for i := range seed {
		seed[i] = api.RatingPayload{Rater: i + 1, Object: 1, Value: 0.4 + 0.01*float64(i), Time: float64(i)}
	}
	if _, err := client.Submit(ctx, seed); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Process(ctx, 0, 100); err != nil {
		t.Fatal(err)
	}
	agg, err := client.Aggregate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestStreamTerminalDrainsPendingAndInvalidatesCache pins the drain of
// abandoned async batches: when a stream dies mid-flight (here the
// body reader fails, as on a client disconnect), batches already
// enqueued via SubmitAsync still commit, so their waits must still be
// awaited and counted. The aggregate served afterwards must be the
// backend's answer over the committed batches, not the one read
// before the stream.
func TestStreamTerminalDrainsPendingAndInvalidatesCache(t *testing.T) {
	j := &asyncJournal{}
	srv, client := newAsyncServer(t, j, WithStreamBatch(4))
	before := primeAggregate(t, client)

	var b strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `{"rater":%d,"object":1,"value":0.9,"time":%d}`+"\n", 50+i, 20+i)
	}
	sum := streamDirect(t, srv, &errAfterReader{data: []byte(b.String()), err: errors.New("connection reset")})
	if sum.Code != api.CodeUnavailable {
		t.Fatalf("summary = %+v", sum)
	}
	// Both batches were enqueued before the cut; both must have been
	// awaited and counted.
	j.mu.Lock()
	batches, waits := len(j.batches), j.waits
	j.mu.Unlock()
	if batches != 2 || waits != 2 || sum.Accepted != 8 {
		t.Fatalf("batches=%d waits=%d summary=%+v", batches, waits, sum)
	}

	// The served aggregate must be the backend's truth, not the
	// pre-stream answer.
	requireServedMatchesBackend(t, srv, client, before)
}

// requireServedMatchesBackend asserts the HTTP-served aggregate of
// object 1 is bit-identical to a recompute of the backend's state (a
// core.System restored from its snapshot) AND that it differs from
// the pre-stream answer (so the equality is not vacuous: a stale read
// would serve `before`).
func requireServedMatchesBackend(t *testing.T, srv *Server, client *Client, before api.AggregateResponse) {
	t.Helper()
	after, err := client.Aggregate(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := srv.System().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewSystem(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	direct, err := oracle.Aggregate(rating.ObjectID(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.Value) != math.Float64bits(direct.Value) ||
		after.Used != direct.Used || after.Filtered != direct.Filtered || after.FellBack != direct.FellBack {
		t.Fatalf("served %+v, backend %+v", after, direct)
	}
	if after.Used+after.Filtered == before.Used+before.Filtered {
		t.Fatalf("aggregate unchanged by the stream (before %+v, after %+v): test proves nothing", before, after)
	}
}

// TestStreamWaitFailureStillInvalidates covers the error leg: a batch
// whose group-commit wait fails may still have been applied
// (partially, on some shards), and the aggregate served afterwards
// must be the backend's answer over what landed.
func TestStreamWaitFailureStillInvalidates(t *testing.T) {
	j := &asyncJournal{waitErr: errors.New("shard 2: wal torn")}
	srv, client := newAsyncServer(t, j, WithStreamBatch(4))
	before := primeAggregate(t, client)

	var b strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, `{"rater":%d,"object":1,"value":0.9,"time":%d}`+"\n", 70+i, 30+i)
	}
	sum := streamDirect(t, srv, strings.NewReader(b.String()))
	if sum.Code != api.CodeUnavailable || sum.Accepted != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	requireServedMatchesBackend(t, srv, client, before)
}

// TestStreamShedsPerBatchWhenOverloaded: with the limiter saturated, a
// stream's first flush is shed and the stream ends with an overloaded
// summary carrying the retry hint (surfaced on the client's APIError).
func TestStreamShedsPerBatchWhenOverloaded(t *testing.T) {
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0, MaxWait: 5 * time.Millisecond, RetryAfter: 3 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	<-srv.admission.tokens // saturate the only slot deterministically
	defer func() { srv.admission.tokens <- struct{}{} }()

	body := "{\"rater\":1,\"object\":1,\"value\":0.5,\"time\":1}\n"
	sum, _, err := client.SubmitStream(context.Background(), strings.NewReader(body))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeOverloaded {
		t.Fatalf("err = %v", err)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v", apiErr.RetryAfter)
	}
	if sum.Code != api.CodeOverloaded || sum.RetryAfter != 3 || sum.Accepted != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestStreamAdmissionPerBatchNotPerRequest: under a single-slot
// limiter a multi-batch async stream still completes — each batch
// takes and returns the token — and every token is back in the
// limiter afterwards. A stream-lifetime token would deadlock here
// (batch 2 waiting on the token batch 1's flush still holds).
func TestStreamAdmissionPerBatchNotPerRequest(t *testing.T) {
	j := &asyncJournal{}
	srv, client := newAsyncServer(t, j,
		WithStreamBatch(8),
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Second}))
	payloads := seededPayloads(64, 11)
	sum, _, err := client.SubmitStream(context.Background(), strings.NewReader(streamBody(payloads)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != 64 {
		t.Fatalf("summary = %+v", sum)
	}
	j.mu.Lock()
	batches, waits := len(j.batches), j.waits
	j.mu.Unlock()
	if batches != 8 || waits != 8 {
		t.Fatalf("batches=%d waits=%d", batches, waits)
	}
	if f := srv.admission.inflightCount(); f != 0 {
		t.Fatalf("inflight %d after stream", f)
	}
}

// slowLineReader emits one NDJSON line per interval, so the whole
// stream takes far longer than the server's per-request timeout while
// every individual read stays prompt.
type slowLineReader struct {
	lines    []string
	interval time.Duration
}

func (r *slowLineReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.interval)
	line := r.lines[0] + "\n"
	r.lines = r.lines[1:]
	return copy(p, line), nil
}

// TestStreamOutlivesRequestTimeout: the stream route is exempt from
// the whole-request timeout (it is bounded per read instead), so a
// bulk ingest taking several times the budget still completes with a
// summary instead of being cut to the TimeoutHandler's static 503.
// The test runs the full production chain — telemetry's statusWriter
// wrapper plus connection-level Read/WriteTimeout like the daemon's —
// so it also pins that the per-read deadline override reaches the
// real connection through the middleware wrappers.
func TestStreamOutlivesRequestTimeout(t *testing.T) {
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}},
		WithRequestTimeout(300*time.Millisecond),
		WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ReadTimeout = 100 * time.Millisecond
	ts.Config.WriteTimeout = 100 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	lines := make([]string, 8)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"rater":%d,"object":1,"value":0.5,"time":%d}`, i+1, i)
	}
	// 8 lines at 20ms apart ≈ 160ms of body: past both the 100ms
	// connection deadlines and half the 300ms request budget, while
	// each individual read stays well inside the idle bound.
	sum, rejects, err := client.SubmitStream(context.Background(),
		&slowLineReader{lines: lines, interval: 20 * time.Millisecond})
	if err != nil || len(rejects) != 0 {
		t.Fatalf("err=%v rejects=%v", err, rejects)
	}
	if sum.Accepted != 8 || sum.Lines != 8 || sum.Code != "" {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestParseRatingLineMatchesStrictDecoder cross-checks the fast path
// against the strict encoding/json decoder: whenever the fast path
// claims a line, the strict decoder must accept it too and every field
// must match bit-for-bit.
func TestParseRatingLineMatchesStrictDecoder(t *testing.T) {
	lines := []string{
		`{"rater":1,"object":2,"value":0.5,"time":3}`,
		`{"rater":-4,"object":0,"value":0.125,"time":0.5}`,
		`{"value":0.1,"time":0.2}`,
		`{"rater":7,"object":9,"value":1,"time":1e3}`,
		`{"rater":7,"object":9,"value":0.333,"time":2.5E2}`,
		`{"rater":7,"object":9,"value":1e-3,"time":-0}`,
		`{"rater":7,"object":9,"value":0.000125,"time":12345.6789}`,
		`{"rater":7,"object":9,"value":9.999999999999e-5,"time":4e22}`,
		`  { "rater" : 1 , "object" : 2 , "value" : 0.25 , "time" : 8 }  `,
		`{}`,
		`{"time":1.5,"value":0.75,"object":3,"rater":2}`,
		// Lines the fast path must either bail on or agree about:
		`{"rater":1,"object":1,"value":0.12345678901234567,"time":1}`, // 17 digits
		`{"rater":1,"object":1,"value":1e-30,"time":1}`,               // exp out of exact range
		`{"rater":1,"object":1,"value":5e22,"time":1}`,
		`{"rater":1,"object":1,"value":0.1,"time":1.7976931348623157e308}`,
	}
	for _, line := range lines {
		fast, ok := parseRatingLine([]byte(line))
		var strict api.RatingPayload
		strictErr := decodeStrict([]byte(line), &strict)
		if !ok {
			continue // bailed to the fallback: always correct
		}
		if strictErr != nil {
			t.Fatalf("fast path accepted %q but strict decoder rejects: %v", line, strictErr)
		}
		if fast.Rater != strict.Rater || fast.Object != strict.Object ||
			math.Float64bits(fast.Value) != math.Float64bits(strict.Value) ||
			math.Float64bits(fast.Time) != math.Float64bits(strict.Time) {
			t.Fatalf("line %q: fast %+v != strict %+v", line, fast, strict)
		}
	}
}

// TestParseRatingLineRejects ensures clearly invalid shapes never pass
// the fast path as accepted values.
func TestParseRatingLineRejects(t *testing.T) {
	for _, line := range []string{
		``,
		`[]`,
		`{"rater":01,"object":1,"value":0.5,"time":1}`,
		`{"rater":1,"object":1,"value":00.5,"time":1}`,
		`{"rater":1,"object":1,"value":.5,"time":1}`,
		`{"rater":1,"object":1,"value":0.5,"time":1} trailing`,
		`{"rater":1,"object":1,"value":0.5,"time":1`,
		`{"unknown":1}`,
		`{"rater":"1","object":1,"value":0.5,"time":1}`,
		`{"rater":1.5,"object":1,"value":0.5,"time":1}`,
		`{"rater":1e2,"object":1,"value":0.5,"time":1}`,
		`{"rater":9223372036854775808,"object":1,"value":0.5,"time":1}`,
	} {
		if p, ok := parseRatingLine([]byte(line)); ok {
			// Acceptance is only a bug if the strict decoder disagrees.
			var strict api.RatingPayload
			if err := decodeStrict([]byte(line), &strict); err != nil {
				t.Fatalf("fast path accepted %q as %+v; strict decoder: %v", line, p, err)
			}
		}
	}
}

// TestStreamHotLoopAllocations pins the zero-steady-state-allocation
// claim: parsing and batching an already-buffered line must not
// allocate.
func TestStreamHotLoopAllocations(t *testing.T) {
	line := []byte(`{"rater":17,"object":4,"value":0.875,"time":123.25}`)
	batch := make([]rating.Rating, 0, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		p, ok := parseRatingLine(line)
		if !ok {
			t.Fatal("fast path bailed")
		}
		batch = append(batch[:0], p.Rating())
	})
	if allocs != 0 {
		t.Fatalf("hot loop allocates %.1f per line", allocs)
	}
}
