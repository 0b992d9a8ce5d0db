package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/rating"
)

// slowJournal delays every submit, simulating a saturated durability
// path so admission control has something to protect.
type slowJournal struct {
	sys   Backend
	delay time.Duration

	applied atomic.Int64
}

func (j *slowJournal) SubmitAll(rs []rating.Rating) error {
	time.Sleep(j.delay)
	if err := j.sys.SubmitAll(rs); err != nil {
		return err
	}
	j.applied.Add(int64(len(rs)))
	return nil
}

func (j *slowJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	time.Sleep(j.delay)
	return j.sys.ProcessWindow(start, end)
}

func (j *slowJournal) Restore(r io.Reader) error { return j.sys.LoadSnapshot(r) }

func newAdmissionServer(t *testing.T, j *slowJournal, cfg AdmissionConfig) (*Server, *httptest.Server) {
	t.Helper()
	opts := []Option{WithAdmission(cfg)}
	if j != nil {
		opts = append(opts, WithJournal(j))
	}
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if j != nil {
		j.sys = srv.System()
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRating(t *testing.T, ts *httptest.Server, rater int) *http.Response {
	t.Helper()
	body := `[{"rater":` + strconv.Itoa(rater) + `,"object":1,"value":0.5,"time":1}]`
	res, err := ts.Client().Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdmissionShedsWithTypedEnvelope saturates a single-slot server
// with no queue and checks the shed response end to end: status 429,
// whole-seconds Retry-After header, overloaded envelope with a
// retry_after hint.
func TestAdmissionShedsWithTypedEnvelope(t *testing.T) {
	j := &slowJournal{delay: 200 * time.Millisecond}
	_, ts := newAdmissionServer(t, j, AdmissionConfig{
		MaxConcurrent: 1,
		MaxQueue:      0,
		MaxWait:       10 * time.Millisecond,
		RetryAfter:    1500 * time.Millisecond,
	})

	// Occupy the only slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		res := postRating(t, ts, 1)
		res.Body.Close()
	}()
	time.Sleep(50 * time.Millisecond) // let the first request start applying

	res := postRating(t, ts, 2)
	defer res.Body.Close()
	<-done

	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra != "2" { // ceil(1.5s)
		t.Fatalf("Retry-After = %q", ra)
	}
	var env api.Error
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("envelope invalid: %v (%+v)", err, env)
	}
	if env.Code != api.CodeOverloaded || env.RetryAfter != 1.5 {
		t.Fatalf("envelope = %+v", env)
	}
}

// TestAdmissionQueueAdmitsWithinWait: with a queue, a briefly-blocked
// request waits for a slot instead of shedding.
func TestAdmissionQueueAdmitsWithinWait(t *testing.T) {
	j := &slowJournal{delay: 30 * time.Millisecond}
	_, ts := newAdmissionServer(t, j, AdmissionConfig{
		MaxConcurrent: 1,
		MaxQueue:      4,
		MaxWait:       2 * time.Second,
	})
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := postRating(t, ts, i+1)
			codes[i] = res.StatusCode
			res.Body.Close()
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := j.applied.Load(); got != 4 {
		t.Fatalf("applied %d of 4", got)
	}
}

// TestAdmissionDeadlineShed: a request whose context deadline has no
// room left is shed immediately, not queued to die.
func TestAdmissionDeadlineShed(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, MaxWait: time.Second})
	<-a.tokens // saturate

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	req := httptest.NewRequest(http.MethodPost, "/v1/ratings", nil).WithContext(ctx)
	began := time.Now()
	result, _ := a.acquire(req)
	if result != shedDeadline {
		t.Fatalf("result = %v", result)
	}
	if waited := time.Since(began); waited > 100*time.Millisecond {
		t.Fatalf("deadline shed took %v", waited)
	}
}

// TestOverloadSoakShedsGracefully drives mutating traffic at roughly
// 4x the server's configured capacity and checks that overload
// degrades the way the design promises:
//
//   - every request resolves promptly as 200 or typed 429 — nobody is
//     parked past the admission wait bound (no deadline overruns);
//   - the shed fraction is substantial (the limiter, not luck, is
//     providing the protection);
//   - once the burst ends, queue depth and goroutine counts return to
//     baseline (nothing leaked);
//   - a retrying client honoring Retry-After converges: its mutation
//     lands despite arriving mid-overload.
func TestOverloadSoakShedsGracefully(t *testing.T) {
	const (
		slots   = 4
		queue   = 8
		workers = 32 // ≈4x the in-flight capacity of slots+queue
		perW    = 25
	)
	j := &slowJournal{delay: 3 * time.Millisecond}
	srv, ts := newAdmissionServer(t, j, AdmissionConfig{
		MaxConcurrent: slots,
		MaxQueue:      queue,
		MaxWait:       20 * time.Millisecond,
		RetryAfter:    50 * time.Millisecond,
	})

	baseGoroutines := runtime.NumGoroutine()

	var ok200, shed429, other atomic.Int64
	var slowest atomic.Int64 // ns of the slowest request
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				began := time.Now()
				res := postRating(t, ts, w*1000+i)
				el := time.Since(began)
				for {
					cur := slowest.Load()
					if int64(el) <= cur || slowest.CompareAndSwap(cur, int64(el)) {
						break
					}
				}
				switch res.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if res.Header.Get("Retry-After") == "" {
						t.Error("shed response missing Retry-After")
					}
					var env api.Error
					if err := json.NewDecoder(res.Body).Decode(&env); err != nil || env.Code != api.CodeOverloaded {
						t.Errorf("shed envelope: %+v err=%v", env, err)
					}
				default:
					other.Add(1)
				}
				res.Body.Close()
			}
		}()
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("unexpected statuses: %d", other.Load())
	}
	if shed429.Load() == 0 {
		t.Fatal("overload never shed — limiter not engaging")
	}
	if ok200.Load() == 0 {
		t.Fatal("overload starved every request — no goodput")
	}
	// Deadline-overrun guard: a request is either admitted (bounded by
	// the slow apply plus queueing) or shed within MaxWait. Allow wide
	// scheduler slack; catastrophic queueing would be seconds.
	if s := time.Duration(slowest.Load()); s > 2*time.Second {
		t.Fatalf("slowest request took %v", s)
	}

	// Drain: the limiter must return to empty and goroutines to baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.admission.queueDepth() == 0 && srv.admission.inflightCount() == 0 &&
			runtime.NumGoroutine() <= baseGoroutines+10 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := srv.admission.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain", d)
	}
	if f := srv.admission.inflightCount(); f != 0 {
		t.Fatalf("inflight %d after drain", f)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+10 {
		t.Fatalf("goroutines grew: %d -> %d", baseGoroutines, g)
	}

	// Convergence: a retrying client that honors Retry-After lands its
	// mutation even if its first attempts hit the tail of the storm.
	rc := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   5 * time.Millisecond,
		Seed:        1,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, err := rc.Submit(ctx, []api.RatingPayload{{Rater: 999999, Object: 2, Value: 0.5, Time: 9}})
	if err != nil || n != 1 {
		t.Fatalf("retrying client did not converge: n=%d err=%v", n, err)
	}
}

// TestClientHonorsRetryAfter pins the client side: a 429 with a hint
// must delay the retry by at least the hint, then succeed.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var last atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); n == 2 {
			firstRetryGap.Store(now - prev)
		}
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(&api.Error{
				Code: api.CodeOverloaded, Message: "busy", RetryAfter: 0.2,
			})
			return
		}
		_ = json.NewEncoder(w).Encode(api.SubmitResponse{Accepted: 1})
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL, ts.Client(), WithRetry(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Seed:        7,
	}))
	n, err := c.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 0.5, Time: 1}})
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d", calls.Load())
	}
	// The envelope hint was 0.2s; the 1ms backoff alone would retry far
	// sooner. Require most of the hint to have elapsed.
	if gap := time.Duration(firstRetryGap.Load()); gap < 150*time.Millisecond {
		t.Fatalf("retry fired after %v, ignoring the 0.2s hint", gap)
	}
}
