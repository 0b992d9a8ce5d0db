package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/randx"
	"repro/internal/rating"
)

// storedRatings reads the backend's rating count through Stats.
func storedRatings(t *testing.T, srv *Server) int {
	t.Helper()
	st, err := srv.System().Stats(nil)
	if err != nil {
		t.Fatal(err)
	}
	return st.Ratings
}

// flakyProxy forwards requests to the real server but, for the first
// failures of each request, executes the request and then DISCARDS the
// response, answering 503 instead. This models the nastiest retry
// hazard: the mutation was applied but the acknowledgement was lost.
type flakyProxy struct {
	inner    http.Handler
	failures int32
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if atomic.AddInt32(&p.failures, -1) >= 0 {
		rec := httptest.NewRecorder()
		p.inner.ServeHTTP(rec, r) // applied...
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable) // ...but the ack is lost
		fmt.Fprint(w, `{"error":"injected ack loss"}`)
		return
	}
	p.inner.ServeHTTP(w, r)
}

// A retried submit whose first acknowledgement was lost must be
// ingested exactly once: the request ID reused across attempts makes
// the server replay the recorded response instead of re-applying the
// batch.
func TestRetrySubmitExactlyOnce(t *testing.T) {
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: srv, failures: 2}
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        42,
	}))
	batch := []api.RatingPayload{
		{Rater: 1, Object: 9, Value: 0.5, Time: 1},
		{Rater: 2, Object: 9, Value: 0.6, Time: 2},
		{Rater: 3, Object: 9, Value: 0.7, Time: 3},
	}
	accepted, err := client.Submit(context.Background(), batch)
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if accepted != 3 {
		t.Fatalf("accepted = %d", accepted)
	}
	if got := storedRatings(t, srv); got != 3 {
		t.Fatalf("system holds %d ratings, want exactly 3 (no double ingestion)", got)
	}
}

// Without retries the same lost ack is a client-visible 503 — the
// retry policy is what turns it into success.
func TestNoRetryPolicySurfacesServerError(t *testing.T) {
	srv, err := New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: srv, failures: 1}
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	_, err = client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
}

// Retries must never fire on 4xx: the request is wrong, not the
// transport.
func TestNoRetryOn4xx(t *testing.T) {
	var hits int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"nope"}`)
	}))
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1,
	}))
	_, err := client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	if err == nil {
		t.Fatal("400 did not surface as error")
	}
	if n := atomic.LoadInt32(&hits); n != 1 {
		t.Fatalf("4xx was retried: %d attempts", n)
	}
}

// A cancelled context stops the retry loop promptly.
func TestRetryHonorsContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 100, BaseDelay: time.Hour, Seed: 1,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Submit(ctx, []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
}

// Retry schedules must DIVERGE across clients built from the same
// policy: a fleet of followers sharing one config seed must not
// stampede a recovering primary in lockstep, and must not draw
// colliding request IDs (which the idempotency cache would wrongly
// deduplicate across clients). Each client mixes a process-wide
// instance counter into the seed, so identical policies yield
// distinct jitter and ID streams.
func TestRetryDivergenceUnderFixedSeed(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second, Seed: 7}
	a := NewClient("http://unused", nil, WithRetry(p))
	b := NewClient("http://unused", nil, WithRetry(p))

	idCollisions, delayCollisions := 0, 0
	for i := 0; i < 16; i++ {
		if a.nextRequestID() == b.nextRequestID() {
			idCollisions++
		}
		// Same retryN on both sides: the worst case for lockstep.
		n := i%2 + 1
		if a.backoff(n) == b.backoff(n) {
			delayCollisions++
		}
	}
	if idCollisions > 0 {
		t.Fatalf("%d request-ID collisions between same-seed clients", idCollisions)
	}
	if delayCollisions > 4 {
		t.Fatalf("%d/16 identical backoff draws between same-seed clients: schedules are synchronized", delayCollisions)
	}

	// The schedule stays decorrelated but bounded: every draw within
	// [BaseDelay, MaxDelay], growth from one draw never exceeds 3x.
	c := NewClient("http://unused", nil, WithRetry(p))
	prev := time.Duration(0)
	for n := 1; n <= 10; n++ {
		d := c.backoff(n)
		if d < p.BaseDelay || d > p.MaxDelay {
			t.Fatalf("draw %d: backoff %v outside [%v, %v]", n, d, p.BaseDelay, p.MaxDelay)
		}
		if prev > 0 && d > 3*prev {
			t.Fatalf("draw %d: backoff %v > 3x previous %v", n, d, prev)
		}
		prev = d
	}
}

// The client's retry delays at a fixed seed. Each is uniform in
// [BaseDelay, 3×previous] capped at MaxDelay, and retry 1 restarts the
// schedule for a fresh logical call.
func TestClientBackoffFirstDelays(t *testing.T) {
	c := NewClient("http://unused", nil, WithRetry(RetryPolicy{
		MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 30 * time.Millisecond}))
	c.rng = randx.New(42)
	for i, tc := range []struct {
		retryN int
		want   time.Duration
	}{{1, 17460567}, {2, 11320009}, {3, 22081877}, {4, 14176374}, {5, 10876369}, {1, 17663865}} {
		if got := c.backoff(tc.retryN); got != tc.want {
			t.Errorf("draw %d (retry %d): %d, want %d", i, tc.retryN, got, tc.want)
		}
	}
}

// Replaying the same request ID directly against the server must not
// re-execute the handler, and the replayed response is marked.
func TestDedupeReplay(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	body := `[{"rater":1,"object":5,"value":0.4,"time":1}]`

	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ratings", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "dedupe-test-1")
		res, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res1 := post()
	io.Copy(io.Discard, res1.Body)
	res1.Body.Close()
	if res1.StatusCode != http.StatusOK {
		t.Fatalf("first attempt: %d", res1.StatusCode)
	}
	if res1.Header.Get("X-Request-Replayed") != "" {
		t.Fatal("first attempt marked as replay")
	}

	res2 := post()
	b, _ := io.ReadAll(res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d", res2.StatusCode)
	}
	if res2.Header.Get("X-Request-Replayed") != "true" {
		t.Fatal("replay not marked")
	}
	var resp api.SubmitResponse
	if err := json.Unmarshal(b, &resp); err != nil || resp.Accepted != 1 {
		t.Fatalf("replayed body = %q (%v)", b, err)
	}
	if got := storedRatings(t, srv); got != 1 {
		t.Fatalf("system holds %d ratings after replay, want 1", got)
	}
}

// Failed (5xx) responses are not cached, so a retry after a journal
// outage re-executes instead of replaying the failure forever.
func TestDedupeDoesNotCacheFailures(t *testing.T) {
	j := &scriptedJournal{failFirst: 1}
	srv, err := New(core.Config{}, WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	j.sys = srv.System()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 3,
	}))
	accepted, err := client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	if err != nil || accepted != 1 {
		t.Fatalf("submit after journal recovery: accepted=%d err=%v", accepted, err)
	}
	if got := storedRatings(t, srv); got != 1 {
		t.Fatalf("system holds %d ratings, want 1", got)
	}
}

// A failed or aborted attempt gives its eviction slot back, so a
// successful retry under the same ID stays replayable for a full
// capacity of later requests, and an attempt that finishes after its
// entry was evicted leaves the retry's entry alone.
func TestDedupeFailedAttemptFreesSlot(t *testing.T) {
	const capacity = 4
	c := newDedupeCache(capacity)
	attempt := func(id string, status int) {
		t.Helper()
		e, leader := c.begin(id)
		if !leader {
			t.Fatalf("%s: a fresh attempt was not the leader", id)
		}
		if status == 0 {
			c.abort(id, e)
		} else {
			c.finish(id, e, status, "", nil)
		}
		if len(c.order) > capacity || len(c.order) != len(c.entries) {
			t.Fatalf("after %s: %d eviction slots for %d entries, capacity %d", id, len(c.order), len(c.entries), capacity)
		}
	}
	// Three requests fail once, then their retries succeed.
	for _, id := range []string{"a", "b", "c"} {
		if id == "b" {
			attempt(id, 0) // the leader panicked
		} else {
			attempt(id, http.StatusServiceUnavailable)
		}
		attempt(id, http.StatusOK)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, leader := c.begin(id); leader {
			t.Fatalf("the successful retry of %s was evicted with %d entries cached", id, len(c.entries))
		}
	}

	// An in-flight attempt evicted by newer requests, then retried:
	// its late 503 must not delete the retry's entry.
	e, _ := c.begin("x")
	for _, id := range []string{"p", "q", "r", "s"} {
		attempt(id, http.StatusOK)
	}
	attempt("x", http.StatusOK)
	c.finish("x", e, http.StatusServiceUnavailable, "", nil)
	if _, leader := c.begin("x"); leader {
		t.Fatal("a late failure of an evicted attempt deleted its retry's entry")
	}
}

// scriptedJournal fails its first failFirst SubmitAll calls, then
// applies to the wrapped system; it can also panic on demand.
type scriptedJournal struct {
	mu        sync.Mutex
	failFirst int
	panicNext bool
	delay     time.Duration
	sys       Backend
}

func (j *scriptedJournal) SubmitAll(rs []rating.Rating) error {
	j.mu.Lock()
	fail := j.failFirst > 0
	if fail {
		j.failFirst--
	}
	doPanic := j.panicNext
	delay := j.delay
	j.mu.Unlock()
	if doPanic {
		panic("journal wiring bug")
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return errors.New("journal disk unavailable")
	}
	return j.sys.SubmitAll(rs)
}

func (j *scriptedJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	return j.sys.ProcessWindow(start, end)
}

func (j *scriptedJournal) Restore(r io.Reader) error { return j.sys.LoadSnapshot(r) }

// A panicking handler must 500 the one request and leave the daemon
// serving.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	j := &scriptedJournal{panicNext: true}
	srv, err := New(core.Config{}, WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	j.sys = srv.System()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	_, err = client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("panic surfaced as %v, want 500 APIError", err)
	}
	if !client.Healthy(context.Background()) {
		t.Fatal("server died after handler panic")
	}
	j.mu.Lock()
	j.panicNext = false
	j.mu.Unlock()
	if _, err := client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}}); err != nil {
		t.Fatalf("submit after recovered panic: %v", err)
	}
}

// Oversized bodies are rejected with 413 before reaching a handler's
// decoder loop.
func TestBodyLimit(t *testing.T) {
	srv, err := New(core.Config{}, WithMaxBodyBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var batch []api.RatingPayload
	for i := 0; i < 100; i++ {
		batch = append(batch, api.RatingPayload{Rater: i, Object: 1, Value: 0.5, Time: float64(i)})
	}
	payload, _ := json.Marshal(batch)
	res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", res.StatusCode)
	}
	if got := storedRatings(t, srv); got != 0 {
		t.Fatalf("oversized batch partially ingested: %d", got)
	}
}

// A handler that exceeds the per-request timeout is cut off with 503
// while the server keeps serving.
func TestRequestTimeout(t *testing.T) {
	j := &scriptedJournal{delay: 500 * time.Millisecond}
	srv, err := New(core.Config{}, WithJournal(j), WithRequestTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	j.sys = srv.System()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	payload := `[{"rater":1,"object":1,"value":0.5,"time":1}]`
	res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from timeout handler", res.StatusCode)
	}
	if !NewClient(ts.URL, ts.Client()).Healthy(context.Background()) {
		t.Fatal("server unhealthy after timed-out request")
	}
}

// Snapshot round trip under concurrent traffic: while writers push
// unique ratings and maintenance windows run, snapshots taken at any
// moment must restore to a consistent state — every rating present at
// most once, and the final snapshot holds all of them exactly once.
func TestSnapshotRoundTripUnderConcurrentTraffic(t *testing.T) {
	srv, _, client := newTestServer(t)
	ctx := context.Background()

	const writers = 4
	const perWriter = 50
	var writerWG sync.WaitGroup
	errs := make(chan error, writers+2)

	for wtr := 0; wtr < writers; wtr++ {
		writerWG.Add(1)
		go func(wtr int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				// Unique (rater, time) per rating so duplicates are
				// detectable in the restored state.
				r := api.RatingPayload{
					Rater:  wtr*perWriter + i,
					Object: 1 + wtr%2,
					Value:  0.5,
					Time:   float64(wtr*perWriter + i),
				}
				if _, err := client.Submit(ctx, []api.RatingPayload{r}); err != nil {
					errs <- err
					return
				}
			}
		}(wtr)
	}
	// Concurrent maintenance and snapshot reader; stops once writers
	// are done.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := client.Snapshot(ctx, &buf); err != nil {
				errs <- fmt.Errorf("snapshot during traffic: %w", err)
				return
			}
			if err := checkNoDuplicates(buf.Bytes(), writers*perWriter); err != nil {
				errs <- err
				return
			}
			if _, err := client.Process(ctx, 0, 10); err != nil {
				errs <- fmt.Errorf("process during traffic: %w", err)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	<-readerDone
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := storedRatings(t, srv); got != writers*perWriter {
		t.Fatalf("system holds %d ratings, want %d", got, writers*perWriter)
	}

	// Final snapshot restores into a fresh server with nothing lost or
	// duplicated.
	var final bytes.Buffer
	if err := client.Snapshot(ctx, &final); err != nil {
		t.Fatal(err)
	}
	srv2, _, client2 := newTestServer(t)
	if err := client2.Restore(ctx, bytes.NewReader(final.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := storedRatings(t, srv2); got != writers*perWriter {
		t.Fatalf("restored system holds %d ratings, want %d", got, writers*perWriter)
	}
	seen := ratingKeys(t, final.Bytes())
	if len(seen) != writers*perWriter {
		t.Fatalf("final snapshot has %d unique ratings, want %d", len(seen), writers*perWriter)
	}
}

// checkNoDuplicates parses a snapshot and verifies each unique rating
// key appears once and the total never exceeds max.
func checkNoDuplicates(snap []byte, max int) error {
	keys := map[string]int{}
	var doc struct {
		Ratings []struct {
			Rater  int     `json:"rater"`
			Object int     `json:"object"`
			Time   float64 `json:"time"`
		} `json:"ratings"`
	}
	if err := json.Unmarshal(snap, &doc); err != nil {
		return fmt.Errorf("snapshot parse: %w", err)
	}
	if len(doc.Ratings) > max {
		return fmt.Errorf("snapshot has %d ratings, max %d submitted", len(doc.Ratings), max)
	}
	for _, r := range doc.Ratings {
		k := fmt.Sprintf("%d/%d/%g", r.Rater, r.Object, r.Time)
		if keys[k]++; keys[k] > 1 {
			return fmt.Errorf("duplicate rating %s in mid-traffic snapshot", k)
		}
	}
	return nil
}

func ratingKeys(t *testing.T, snap []byte) map[string]bool {
	t.Helper()
	var doc struct {
		Ratings []struct {
			Rater  int     `json:"rater"`
			Object int     `json:"object"`
			Time   float64 `json:"time"`
		} `json:"ratings"`
	}
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, r := range doc.Ratings {
		out[fmt.Sprintf("%d/%d/%g", r.Rater, r.Object, r.Time)] = true
	}
	return out
}
