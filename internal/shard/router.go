package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rating"
)

// FlushFunc applies one shard's coalesced batch. The router guarantees
// every rating in rs routes to the given shard. The slice is the shard
// worker's reusable batch buffer: it is valid only for the duration of
// the call and must not be retained. In-process engines pass
// Engine.SubmitShard; ratingd wraps it with a WAL append so the batch
// is durable before it is applied.
type FlushFunc func(shard int, rs []rating.Rating) error

// ErrRouterClosed is returned by submissions to a closed router.
var ErrRouterClosed = errors.New("shard: router closed")

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Shards is the shard count; must match the engine behind Flush.
	Shards int
	// BatchSize flushes a shard's pending batch once it reaches this
	// many ratings. Zero means 256.
	BatchSize int
	// Interval flushes non-empty pending batches on this cadence, so a
	// trickle of SubmitAsync batches is never stranded waiting for a
	// full batch. While it is positive, a blocking Submit also flushes
	// the shards it touched on their workers' next drain, unless a
	// shard's previous flush was full. Zero means 2ms; negative
	// disables the ticker and the early flush (flushes happen only on
	// size, Flush or Close).
	Interval time.Duration
	// Flush applies one shard's batch.
	Flush FlushFunc
	// Metrics receives per-shard flush telemetry; nil disables.
	Metrics *Metrics
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
	return c
}

// Router is the batching front of a sharded engine: submitters write
// each rating straight into its shard's lock-free ingest ring, and a
// dedicated per-shard worker drains the ring into a reusable batch
// that it flushes when the batch fills or the interval elapses (group
// commit). Submit blocks until every shard batch holding the caller's
// ratings has been flushed, so acknowledgement still means applied —
// and, when Flush appends to a WAL, durable.
//
// A blocking Submit does not wait for the interval: it asks each shard
// it touched to flush on the worker's next drain, taking whatever else
// the ring holds along; the worker yields once before that drain, so
// submitters already runnable join the flush. A shard whose previous
// flush was full is under load, so it ignores the request and keeps
// coalescing until the batch fills or the interval elapses.
// SubmitAsync, the streaming path, never asks: its callers pipeline,
// so the interval's wait costs them nothing and bigger batches save
// fsyncs.
//
// There is no lock anywhere on the submit path: producers claim ring
// slots with one CAS per rating, wake workers through a buffered
// doorbell channel, and block only when a ring is full (backpressure)
// or on their submission's acknowledgement. The coalescing is what
// makes sharding pay on a single core: a shard's flush applies its
// whole batch with one sorted merge per object
// (Store.AddBatchValidated), so per-rating insertion cost drops with
// the batch size the shard accumulates.
type Router struct {
	cfg     RouterConfig
	workers []*shardWorker
	wg      sync.WaitGroup

	// stopc is closed by Close once no producer is mid-submit, telling
	// workers to drain their ring one final time and exit; stopped is
	// closed after they have, releasing any Flush caller racing Close.
	stopc   chan struct{}
	stopped chan struct{}

	// closed rejects new submissions; active counts producers inside
	// submit. Close flips closed first, then spins until active drops
	// to zero, so every accepted submission's ratings are in a ring —
	// and therefore drained and acknowledged — before stopc closes.
	closed atomic.Bool
	active atomic.Int64
}

// submission is one Submit/SubmitAsync call's acknowledgement state:
// pending counts ratings not yet flushed, errp latches the first flush
// error, and done delivers the group-commit result when the last
// rating's flush completes. Submissions are pooled; wait recycles.
type submission struct {
	pending atomic.Int64
	errp    atomic.Pointer[error]
	done    chan error
}

var submissionPool = sync.Pool{
	New: func() any { return &submission{done: make(chan error, 1)} },
}

func (s *submission) wait() error {
	err := <-s.done
	submissionPool.Put(s)
	return err
}

// shardWorker owns one shard's ingest ring and batch buffer. Only the
// worker goroutine touches batch/subs; producers communicate through
// the ring and the two signal channels.
type shardWorker struct {
	shard int
	q     *ring
	// bell wakes the worker to drain (capacity 1, non-blocking sends:
	// a pending token already guarantees a wakeup).
	bell chan struct{}
	// space wakes one producer parked on a full ring after the worker
	// drains (capacity 1, non-blocking sends).
	space chan struct{}
	// flushc carries Flush requests; the worker drains, flushes and
	// replies with that flush's error.
	flushc chan chan error
	// asked is set by a blocking Submit once its ratings are in the
	// ring, just before it rings the bell: flush on the next drain.
	asked atomic.Bool

	batch []rating.Rating
	subs  []*submission
	// lastFull records whether the previous flush held BatchSize
	// ratings or more, which makes the worker ignore asked.
	lastFull bool
}

// NewRouter builds and starts the router's per-shard workers.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: router shard count %d", cfg.Shards)
	}
	if cfg.Flush == nil {
		return nil, errors.New("shard: router needs a flush function")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		stopc:   make(chan struct{}),
		stopped: make(chan struct{}),
	}
	batchCap := cfg.BatchSize
	if batchCap > 4096 {
		batchCap = 4096
	}
	// Each shard's ingest ring holds 4×BatchSize ratings, clamped to
	// [1024, 65536] (rounded up to a power of two). A full ring is
	// backpressure: submitters park until the shard worker drains.
	queueDepth := min(max(4*cfg.BatchSize, 1024), 65536)
	r.workers = make([]*shardWorker, cfg.Shards)
	for i := range r.workers {
		w := &shardWorker{
			shard:  i,
			q:      newRing(queueDepth),
			bell:   make(chan struct{}, 1),
			space:  make(chan struct{}, 1),
			flushc: make(chan chan error),
			batch:  make([]rating.Rating, 0, batchCap),
			subs:   make([]*submission, 0, batchCap),
		}
		r.workers[i] = w
		r.wg.Add(1)
		go r.runWorker(w)
	}
	return r, nil
}

func (r *Router) runWorker(w *shardWorker) {
	defer r.wg.Done()
	var tick <-chan time.Time
	if r.cfg.Interval > 0 {
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-w.bell:
			// Read asked before draining: a submitter sets it after its
			// ratings are in the ring, so a request seen here covers
			// ratings this drain collects, and one set after this read
			// comes with another bell.
			early := w.asked.Swap(false) && tick != nil && !w.lastFull
			if early {
				// Yield once before draining, so goroutines that are
				// already runnable, typically the submitters the last
				// flush released, publish their next ratings into this
				// flush instead of each paying for one of their own.
				// With nothing else runnable it returns at once.
				runtime.Gosched()
			}
			w.drain()
			if early || len(w.batch) >= r.cfg.BatchSize {
				r.flushWorker(w)
			}
		case <-tick:
			w.drain()
			r.flushWorker(w)
		case reply := <-w.flushc:
			w.drain()
			reply <- r.flushWorker(w)
		case <-r.stopc:
			// Producers have quiesced (Close waits for them before
			// closing stopc), so one final drain empties the ring and
			// the flush acknowledges every accepted submission.
			w.drain()
			r.flushWorker(w)
			return
		}
	}
}

// drain moves every published ring slot into the worker's batch and,
// if anything moved, wakes one producer that may be parked on a full
// ring.
func (w *shardWorker) drain() {
	q := w.q
	drained := false
	for {
		s := &q.slots[q.tail&q.mask]
		if s.seq.Load() != q.tail+1 {
			break
		}
		w.batch = append(w.batch, s.r)
		w.subs = append(w.subs, s.sub)
		s.sub = nil
		s.seq.Store(q.tail + q.size)
		q.tail++
		drained = true
	}
	if drained {
		select {
		case w.space <- struct{}{}:
		default:
		}
	}
}

// flushWorker applies the worker's accumulated batch and settles each
// member rating's submission: the first flush error is latched, and
// whichever shard worker retires a submission's last rating delivers
// the group-commit acknowledgement.
func (r *Router) flushWorker(w *shardWorker) error {
	if len(w.batch) == 0 {
		return nil
	}
	err := r.cfg.Flush(w.shard, w.batch)
	w.lastFull = len(w.batch) >= r.cfg.BatchSize
	if err != nil {
		r.cfg.Metrics.flushFailed(w.shard)
	} else {
		r.cfg.Metrics.flushed(w.shard, len(w.batch))
	}
	var box *error
	if err != nil {
		e := err
		box = &e
	}
	for i, sub := range w.subs {
		w.subs[i] = nil
		if box != nil {
			sub.errp.CompareAndSwap(nil, box)
		}
		if sub.pending.Add(-1) == 0 {
			var final error
			if p := sub.errp.Load(); p != nil {
				final = *p
			}
			sub.done <- final
		}
	}
	w.batch = w.batch[:0]
	w.subs = w.subs[:0]
	return err
}

// Submit routes the batch and blocks until every shard batch holding
// one of its ratings has flushed; each shard it touched flushes on its
// worker's next drain unless that shard's previous flush was full.
// Ratings are validated upfront so a malformed rating rejects only
// this submission, never a coalesced batch containing other callers'
// ratings. The first flush error is returned; the submission's ratings
// must then be treated as not applied on the failed shard.
func (r *Router) Submit(rs []rating.Rating) error {
	if len(rs) == 0 {
		return nil
	}
	sub, err := r.submit(rs, true)
	if err != nil {
		return err
	}
	return sub.wait()
}

// SubmitAsync routes the batch like Submit but returns immediately
// after enqueueing, handing back a wait function that blocks until
// every shard batch holding one of the caller's ratings has flushed
// and returns the first flush error. Its ratings wait for a full batch
// or the interval, never flushing early. The caller's slice is not
// retained — its values are copied into the shard rings before
// SubmitAsync returns — so the caller may reuse it at once, pipelining
// the decode of the next batch against this batch's group commit.
// Each returned wait must be called exactly once.
func (r *Router) SubmitAsync(rs []rating.Rating) (func() error, error) {
	if len(rs) == 0 {
		return func() error { return nil }, nil
	}
	sub, err := r.submit(rs, false)
	if err != nil {
		return nil, err
	}
	return sub.wait, nil
}

// submit validates rs, publishes every rating into its shard's ring
// under a pooled submission, and rings each touched shard's doorbell,
// first asking it to flush early when ask is set. The active counter
// brackets the ring writes so Close can wait for in-flight submissions
// before stopping the workers: once submit returns nil error, the
// submission's acknowledgement is guaranteed.
func (r *Router) submit(rs []rating.Rating, ask bool) (*submission, error) {
	for i, rt := range rs {
		if err := rt.Validate(); err != nil {
			return nil, fmt.Errorf("shard: rating %d: %w", i, err)
		}
	}
	r.active.Add(1)
	if r.closed.Load() {
		r.active.Add(-1)
		return nil, ErrRouterClosed
	}
	sub := submissionPool.Get().(*submission)
	sub.errp.Store(nil)
	sub.pending.Store(int64(len(rs)))
	n := len(r.workers)
	switch {
	case n == 1:
		w := r.workers[0]
		for _, rt := range rs {
			r.push(w, rt, sub)
		}
		wake(w, ask)
	case n <= 64:
		// Defer doorbells to one per touched shard: a non-blocking
		// channel send per rating would dominate the per-rating cost.
		var touched uint64
		for _, rt := range rs {
			s := ShardFor(rt.Object, n)
			r.push(r.workers[s], rt, sub)
			touched |= 1 << uint(s)
		}
		for touched != 0 {
			s := bits.TrailingZeros64(touched)
			touched &^= 1 << uint(s)
			wake(r.workers[s], ask)
		}
	default:
		for _, rt := range rs {
			w := r.workers[ShardFor(rt.Object, n)]
			r.push(w, rt, sub)
			wake(w, ask)
		}
	}
	r.active.Add(-1)
	return sub, nil
}

// push publishes one rating, parking on the worker's space channel
// when the ring is full. The doorbell before parking guarantees the
// worker will drain; the worker stays alive for as long as any
// producer is mid-submit, so the park always resolves.
func (r *Router) push(w *shardWorker, rt rating.Rating, sub *submission) {
	for !w.q.push(rt, sub) {
		ringBell(w)
		<-w.space
	}
}

// wake rings w's doorbell, first asking for a flush on the drain it
// triggers when ask is set.
func wake(w *shardWorker, ask bool) {
	if ask {
		w.asked.Store(true)
	}
	ringBell(w)
}

func ringBell(w *shardWorker) {
	select {
	case w.bell <- struct{}{}:
	default:
	}
}

// Flush forces every shard's pending batch out and blocks until the
// flushes complete, returning the first error. Call before reading
// engine state that must reflect all acknowledged-pending traffic
// (e.g. before a maintenance window).
func (r *Router) Flush() error {
	if r.closed.Load() {
		return ErrRouterClosed
	}
	replies := make([]chan error, 0, len(r.workers))
	for _, w := range r.workers {
		reply := make(chan error, 1)
		select {
		case w.flushc <- reply:
			replies = append(replies, reply)
		case <-r.stopped:
			// Lost the race with Close; its final drain has already
			// flushed everything pending.
			return ErrRouterClosed
		}
	}
	var first error
	for _, reply := range replies {
		if err := <-reply; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close drains pending batches, stops the workers and rejects further
// submissions.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Wait for in-flight submissions to finish their ring writes; the
	// workers are still draining, so a producer parked on a full ring
	// makes progress. Then stop the workers, whose final drain
	// acknowledges everything accepted.
	for r.active.Load() > 0 {
		runtime.Gosched()
	}
	close(r.stopc)
	r.wg.Wait()
	close(r.stopped)
	return nil
}
