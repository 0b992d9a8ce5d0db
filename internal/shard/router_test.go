package shard_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
)

func mk(obj, i int) rating.Rating {
	return rating.Rating{
		Rater:  rating.RaterID(i % 7),
		Object: rating.ObjectID(obj),
		Value:  0.5,
		Time:   float64(i),
	}
}

// A full batch flushes immediately and coalesces many submissions
// into few AddBatch merges.
func TestRouterCoalescesBySize(t *testing.T) {
	var flushes, ratings atomic.Int64
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: 8,
		Interval:  -1, // size-only, so the count below is deterministic
		Flush: func(s int, rs []rating.Rating) error {
			flushes.Add(1)
			ratings.Add(int64(len(rs)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	waits := make([]func() error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// All to one object, so one shard fills fast.
			wait, err := r.SubmitAsync([]rating.Rating{mk(1, i)})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			waits[i] = wait
		}(i)
	}
	wg.Wait()
	// A drain that carries the batch past a multiple of BatchSize leaves
	// a tail below it that only Close flushes here, so the submissions
	// are awaited after Close: awaiting them first can block forever.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i, wait := range waits {
		if wait != nil {
			if err := wait(); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
	}
	if got := ratings.Load(); got != n {
		t.Fatalf("flushed %d ratings, want %d", got, n)
	}
	// 64 ratings at batch size 8 cannot take more than 64/8 + 1 tail
	// flushes if coalescing works at all; without coalescing it would
	// be 64.
	if got := flushes.Load(); got > n/8+1 {
		t.Fatalf("%d flushes for %d ratings at batch size 8 — no coalescing", got, n)
	}
}

// Sharding pays on one core because a shard's batch spans only its own
// objects: a flush costs one Store.mergeObject per distinct object, so
// 256 ratings over 12 objects merge 4x less often than 256 over 48.
// With the ticker off, only size, Flush and Close flush, so every flush
// but each shard's last is full and the merge ratio is at least 3.9.
func TestRouterShardingCutsMerges(t *testing.T) {
	const (
		n         = 122880
		objects   = 48
		raters    = 512
		batchSize = 256
	)
	rng := randx.New(1)
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(raters) + 1),
			Object: rating.ObjectID(rng.Intn(objects)),
			Value:  rng.Float64(),
			// Scrambled event time, so every flush merges into the
			// middle of each object's history.
			Time: rng.Float64() * 365,
		}
	}
	merges := func(shards int) int {
		engine, err := shard.NewEngine(core.Config{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Each shard's flushes run on its own worker, so the per-shard
		// slots need no lock; Close orders them before the reads below.
		sizes := make([][]int, shards)
		merged := make([]int, shards)
		r, err := shard.NewRouter(shard.RouterConfig{
			Shards:    shards,
			BatchSize: batchSize,
			Interval:  -1,
			Flush: func(s int, batch []rating.Rating) error {
				distinct := make(map[rating.ObjectID]bool)
				for _, rt := range batch {
					distinct[rt.Object] = true
				}
				sizes[s] = append(sizes[s], len(batch))
				merged[s] += len(distinct)
				return engine.SubmitShard(s, batch)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var waits []func() error
		for lo := 0; lo < n; lo += batchSize {
			chunk := rs[lo : lo+batchSize]
			if shards == 1 {
				// One blocking chunk per flush: exactly n/256 flushes.
				if err := r.Submit(chunk); err != nil {
					t.Fatal(err)
				}
				continue
			}
			wait, err := r.SubmitAsync(chunk)
			if err != nil {
				t.Fatal(err)
			}
			waits = append(waits, wait)
		}
		// A shard's tail below the batch size flushes only on Close, so
		// the submissions are awaited after it.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		for _, wait := range waits {
			if err := wait(); err != nil {
				t.Fatal(err)
			}
		}
		total, flushes, short := 0, 0, 0
		for s, ss := range sizes {
			for i, size := range ss {
				if i < len(ss)-1 && size < batchSize {
					short++
				}
			}
			total += merged[s]
			flushes += len(ss)
		}
		if short > 0 {
			t.Errorf("%d shards: %d of %d flushes below %d ratings before their shard's last", shards, short, flushes, batchSize)
		}
		if got := engine.Len(); got != n {
			t.Fatalf("%d shards: engine holds %d of %d ratings", shards, got, n)
		}
		t.Logf("%d shards: %d flushes, %d merges", shards, flushes, total)
		return total
	}
	one, four := merges(1), merges(4)
	if ratio := float64(one) / float64(four); ratio < 3 {
		t.Fatalf("merges: %d at 1 shard, %d at 4 shards (ratio %.2f, want >= 3)", one, four, ratio)
	}
}

// The interval flushes a trickle that never fills a batch.
func TestRouterFlushesOnInterval(t *testing.T) {
	var ratings atomic.Int64
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: 1 << 20,
		Interval:  time.Millisecond,
		Flush: func(s int, rs []rating.Rating) error {
			ratings.Add(int64(len(rs)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// SubmitAsync never asks for an early flush, so only the interval
	// can release the wait.
	wait, err := r.SubmitAsync([]rating.Rating{mk(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if got := ratings.Load(); got != 1 {
		t.Fatalf("flushed %d ratings, want 1", got)
	}
}

// countingRouter is a router whose Flush counts flushes and ratings,
// with the given batch size and interval.
func countingRouter(t *testing.T, batch int, interval time.Duration) (r *shard.Router, flushes, ratings *atomic.Int64) {
	t.Helper()
	flushes, ratings = new(atomic.Int64), new(atomic.Int64)
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: batch,
		Interval:  interval,
		Flush: func(s int, rs []rating.Rating) error {
			flushes.Add(1)
			ratings.Add(int64(len(rs)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, flushes, ratings
}

// submitOne runs a blocking one-rating Submit on its own goroutine; the
// channel delivers its error.
func submitOne(r *shard.Router, rt rating.Rating) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.Submit([]rating.Rating{rt}) }()
	return done
}

// returnsWithin reports whether done delivers within d, failing the
// test on a submit error.
func returnsWithin(t *testing.T, done <-chan error, d time.Duration) bool {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return true
	case <-time.After(d):
		return false
	}
}

// A blocking submit flushes its shard on the worker's next drain: it
// neither fills the batch nor waits for the hour-long interval.
func TestRouterSubmitFlushesEarly(t *testing.T) {
	r, flushes, _ := countingRouter(t, 1<<20, time.Hour)
	if !returnsWithin(t, submitOne(r, mk(1, 0)), 5*time.Second) {
		t.Fatal("blocking submit still pending after 5s: it waited for the interval")
	}
	if got := flushes.Load(); got != 1 {
		t.Fatalf("%d flushes, want 1", got)
	}
}

// SubmitAsync, the streaming path, keeps the size and interval rule:
// a lone rating stays pending until something else flushes it.
func TestRouterSubmitAsyncWaitsForInterval(t *testing.T) {
	r, flushes, _ := countingRouter(t, 1<<20, time.Hour)
	wait, err := r.SubmitAsync([]rating.Rating{mk(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := flushes.Load(); got != 0 {
		t.Fatalf("async rating flushed early: %d flushes", got)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if got := flushes.Load(); got != 1 {
		t.Fatalf("%d flushes, want 1", got)
	}
}

// A shard whose previous flush was full is under load, so a blocking
// submit there waits for the batch to fill; once a partial flush shows
// the load has gone, blocking submits flush early again.
func TestRouterFullFlushDefersEarlyFlush(t *testing.T) {
	const batch = 4
	r, flushes, ratings := countingRouter(t, batch, time.Hour)
	// All ratings go to object 1, so to one shard.
	async := func(from, n int) func() error {
		t.Helper()
		rs := make([]rating.Rating, n)
		for i := range rs {
			rs[i] = mk(1, from+i)
		}
		wait, err := r.SubmitAsync(rs)
		if err != nil {
			t.Fatal(err)
		}
		return wait
	}

	// 1. A full flush.
	if err := async(0, batch)(); err != nil {
		t.Fatal(err)
	}
	if got := flushes.Load(); got != 1 {
		t.Fatalf("after the full batch: %d flushes, want 1", got)
	}

	// 2. The blocking submit that follows is not flushed early.
	done := submitOne(r, mk(1, batch))
	if returnsWithin(t, done, 50*time.Millisecond) {
		t.Fatal("blocking submit flushed early although the last flush was full")
	}
	if got := flushes.Load(); got != 1 {
		t.Fatalf("after the blocking submit: %d flushes, want 1", got)
	}

	// 3. Three async ratings fill the batch, flushing all four and
	// releasing the submitter.
	wait := async(batch+1, batch-1)
	if !returnsWithin(t, done, 5*time.Second) {
		t.Fatal("blocking submit still pending after its batch filled")
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if got, n := flushes.Load(), ratings.Load(); got != 2 || n != 2*batch {
		t.Fatalf("after the batch filled: %d flushes of %d ratings, want 2 of %d", got, n, 2*batch)
	}

	// 4. A partial Flush clears the load, so the next blocking submit
	// returns at once.
	wait = async(2*batch, 1)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if !returnsWithin(t, submitOne(r, mk(1, 2*batch+1)), 5*time.Second) {
		t.Fatal("blocking submit still pending after a partial flush")
	}
	if got := flushes.Load(); got != 4 {
		t.Fatalf("after the partial flush: %d flushes, want 4", got)
	}
}

// Flush errors propagate to every blocked submitter of the batch.
func TestRouterPropagatesFlushErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: 4,
		Interval:  -1,
		Flush:     func(int, []rating.Rating) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Submit([]rating.Rating{mk(1, i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("submitter %d: %v, want flush error", i, err)
		}
	}
}

// Malformed ratings are rejected before they can poison a coalesced
// batch.
func TestRouterValidatesUpfront(t *testing.T) {
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards: 2,
		Flush:  func(int, []rating.Rating) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bad := rating.Rating{Object: 1, Value: 7}
	if err := r.Submit([]rating.Rating{bad}); err == nil {
		t.Fatal("invalid rating accepted")
	}
}

// Close never strands a blocked submitter: every accepted submission
// is flushed, every late one is rejected with ErrRouterClosed, and
// the flushed count matches the accepted count exactly.
func TestRouterCloseDrains(t *testing.T) {
	var ratings atomic.Int64
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: 1 << 20,
		Interval:  -1, // nothing flushes until Close
		Flush: func(s int, rs []rating.Rating) error {
			ratings.Add(int64(len(rs)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Submit([]rating.Rating{mk(1, i)})
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let submitters block on the flush
	// Without an interval a blocking submit does not flush early either.
	if got := ratings.Load(); got != 0 {
		t.Fatalf("flushed %d ratings before Close", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	accepted := 0
	for i, err := range errs {
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, shard.ErrRouterClosed):
			// Lost the race to Close; must not have been applied.
		default:
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	if got := ratings.Load(); got != int64(accepted) {
		t.Fatalf("flushed %d ratings, %d submissions were accepted", got, accepted)
	}
	if err := r.Submit([]rating.Rating{mk(1, 99)}); !errors.Is(err, shard.ErrRouterClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// SubmitShard rejects misrouted ratings — recovery depends on
// placement being a pure function of the object ID.
func TestEngineRejectsMisroutedBatch(t *testing.T) {
	e, err := shard.NewEngine(core.Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := mk(1, 0)
	wrong := (e.ShardFor(r.Object) + 1) % 4
	if err := e.SubmitShard(wrong, []rating.Rating{r}); err == nil {
		t.Fatal("misrouted batch accepted")
	}
	if e.Len() != 0 {
		t.Fatalf("misrouted batch mutated state: len=%d", e.Len())
	}
}

// SubmitAsync must copy the caller's values before returning, so the
// slice can be truncated and refilled while the batch group-commits —
// the contract the streaming ingest endpoint's pooled buffers rely on.
func TestRouterSubmitAsyncCopiesAndPipelines(t *testing.T) {
	var applied atomic.Int64
	gate := make(chan struct{})
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:    2,
		BatchSize: 4,
		Interval:  time.Millisecond,
		Flush: func(s int, rs []rating.Rating) error {
			<-gate // hold the flush so waits are observably pending
			for _, rt := range rs {
				if rt.Value != 0.5 {
					t.Errorf("flush saw clobbered rating %+v", rt)
				}
			}
			applied.Add(int64(len(rs)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	buf := make([]rating.Rating, 0, 4)
	waits := make([]func() error, 0, 4)
	for b := 0; b < 4; b++ {
		buf = buf[:0]
		for i := 0; i < 4; i++ {
			buf = append(buf, mk(b, b*4+i))
		}
		wait, err := r.SubmitAsync(buf)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
		// Clobber the shared buffer immediately: if the router aliased
		// it, the held-back flush above would observe garbage.
		for i := range buf {
			buf[i].Value = -1
		}
	}
	if got := applied.Load(); got != 0 {
		t.Fatalf("flushes ran before release: %d", got)
	}
	close(gate)
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if got := applied.Load(); got != 16 {
		t.Fatalf("applied %d, want 16", got)
	}
}

// An async submit's wait surfaces the flush error of its own batch.
func TestRouterSubmitAsyncReportsFlushError(t *testing.T) {
	boom := errors.New("disk gone")
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards:   1,
		Interval: time.Millisecond,
		Flush: func(s int, rs []rating.Rating) error {
			return boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wait, err := r.SubmitAsync([]rating.Rating{mk(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); !errors.Is(err, boom) {
		t.Fatalf("wait err = %v", err)
	}
}

// SubmitAsync after Close refuses rather than stranding a waiter.
func TestRouterSubmitAsyncClosed(t *testing.T) {
	r, err := shard.NewRouter(shard.RouterConfig{
		Shards: 1,
		Flush:  func(int, []rating.Rating) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitAsync([]rating.Rating{mk(1, 1)}); !errors.Is(err, shard.ErrRouterClosed) {
		t.Fatalf("err = %v", err)
	}
}
