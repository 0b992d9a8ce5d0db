package shard

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/detector"
	"repro/internal/parallel"
	"repro/internal/rating"
)

// StreamConfig configures the engine's online detection path: a
// per-(shard, object) detector.Stream fed from the shard workers at
// submit time, continuous suspicion accrual into an AlertLog, and
// optional automatic maintenance-window closes driven by the rating
// clock. The co-rating collusion graph needs a window of history, so
// it runs only inside maintenance windows (core.Config.Collusion).
//
// The streaming path is advisory: it never touches the rating stores
// or the trust manager, so the engine's trust vector, malicious list
// and fingerprints stay byte-identical to a batch core.System fed the
// same ratings and window closes (the conformance harness pins this).
// Authoritative charging still happens in ProcessWindow — the
// streaming path decides *when* windows close (MaintainEvery) and
// raises alerts in between.
type StreamConfig struct {
	// Detector is the per-object online config; count windows only
	// (zero Mode defaults to count, zero Size/Step to 50/25).
	Detector detector.Config
	// AlertThreshold is the accrued suspicion at which a rater is
	// alerted. Zero means 0.5.
	AlertThreshold float64
	// MaintainEvery, when positive, closes an authoritative
	// maintenance window [k·E, (k+1)·E) as soon as a rating at or past
	// its end arrives, by invoking OnWindowDue from a pump goroutine.
	MaintainEvery float64
	// ResumeAfter is the window end through which authoritative
	// charging is already durable (recovery); boundaries at or before
	// it are not re-fired, later ones catch up during EnableStreaming.
	ResumeAfter float64
	// OnWindowDue performs the authoritative window close (typically
	// a journal or engine ProcessWindow). Calls are serialized and
	// strictly ordered by window start.
	OnWindowDue func(start, end float64)
}

// streamQueueDepth bounds each shard's pending batch queue; when full,
// new batches are shed (counted, never blocking ingest).
const streamQueueDepth = 1024

// streamShard is one shard's streaming state: a bounded queue of
// observed batches and the per-object streams its pump owns. objs,
// buffering and accruals are touched only by the pump (and by the
// rebuild pass, which runs before pumps start).
type streamShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	closed  bool
	ch      chan []rating.Rating
	objs    map[rating.ObjectID]*detector.Stream

	// While buffering (the rebuild), the shard's streams append their
	// accruals here instead of folding them into the alert log.
	buffering bool
	accruals  []accrual
}

// accrual is one stream suspicion increment, as a detector.Stream
// reports it for one of the shard's objects.
type accrual struct {
	rater     rating.RaterID
	obj       rating.ObjectID
	delta, at float64
}

// Streaming is the engine's online detection state. Obtain it from
// Engine.EnableStreaming; read alerts via Alerts().
type Streaming struct {
	cfg    StreamConfig
	engine *Engine
	sink   *AlertLog
	shards []*streamShard
	wg     sync.WaitGroup

	// timeMu guards the rating clock's high-water mark and the next
	// maintenance boundary; fireMu serializes boundary firing so
	// windows close in order.
	timeMu  sync.Mutex
	maxTime float64
	nextDue float64
	fireMu  sync.Mutex

	pushed      atomic.Int64
	lateDropped atomic.Int64
	shed        atomic.Int64
}

// StreamStats is a point-in-time counter snapshot of the streaming
// path.
type StreamStats struct {
	// Pushed counts ratings accepted into per-object streams.
	Pushed int64
	// LateDropped counts ratings that arrived behind their object's
	// stream clock and were skipped (advisory path only; the store
	// keeps them and batch windows still see them).
	LateDropped int64
	// Shed counts ratings dropped because a shard's queue was full.
	Shed int64
	// Alerts is the alert log length.
	Alerts int
}

// EnableStreaming switches the online detection path on: it rebuilds
// per-object streams from the ratings already stored (recovery), fires
// any maintenance boundaries past ResumeAfter that the stored ratings
// already crossed, then starts one pump goroutine per shard. It must
// be called before the engine serves overlapping traffic and at most
// once.
func (e *Engine) EnableStreaming(cfg StreamConfig) (*Streaming, error) {
	s, err := e.newStreaming(cfg)
	if err != nil {
		return nil, err
	}
	// Rebuild from the stores under all shard locks, then publish the
	// pointer before releasing them: every submit completes either
	// entirely before (its ratings are in the store the rebuild reads)
	// or entirely after (it observes the published pointer), so no
	// rating is double-pushed or missed.
	e.lockAll()
	// Raters the durable trust state already holds malicious were
	// window-flagged by pre-restart closes; seed the flag set (no
	// alerts) so recovery matches a never-crashed run's flag state.
	s.sink.seedWindowFlags(e.maliciousRaters())
	s.rebuild()
	if !e.streaming.CompareAndSwap(nil, s) {
		e.unlockAll()
		return nil, fmt.Errorf("shard: streaming already enabled")
	}
	e.unlockAll()

	// Catch up maintenance boundaries the stored ratings had already
	// crossed but whose close never became durable before a crash.
	s.fireDue()
	for i := range s.shards {
		s.wg.Add(1)
		go s.pump(i)
	}
	return s, nil
}

// newStreaming validates cfg and builds the streaming state with
// empty streams and no pumps.
func (e *Engine) newStreaming(cfg StreamConfig) (*Streaming, error) {
	if cfg.AlertThreshold == 0 {
		cfg.AlertThreshold = 0.5
	}
	if _, err := detector.NewStream(cfg.Detector); err != nil {
		return nil, fmt.Errorf("shard: streaming: %w", err)
	}
	if cfg.AlertThreshold < 0 || math.IsNaN(cfg.AlertThreshold) {
		return nil, fmt.Errorf("shard: streaming: alert threshold %g", cfg.AlertThreshold)
	}
	if cfg.MaintainEvery < 0 || math.IsNaN(cfg.MaintainEvery) || math.IsInf(cfg.MaintainEvery, 0) {
		return nil, fmt.Errorf("shard: streaming: maintain every %g", cfg.MaintainEvery)
	}
	s := &Streaming{
		cfg:    cfg,
		engine: e,
		sink:   newAlertLog(cfg.AlertThreshold, e.metrics),
		shards: make([]*streamShard, len(e.states)),
	}
	s.maxTime = math.Inf(-1)
	s.nextDue = cfg.MaintainEvery
	if cfg.MaintainEvery > 0 && cfg.ResumeAfter > 0 {
		s.nextDue = cfg.ResumeAfter + cfg.MaintainEvery
	}
	for i := range s.shards {
		ss := &streamShard{
			ch:   make(chan []rating.Rating, streamQueueDepth),
			objs: make(map[rating.ObjectID]*detector.Stream),
		}
		ss.cond = sync.NewCond(&ss.mu)
		s.shards[i] = ss
	}
	return s, nil
}

// rebuild pushes every stored rating into its object's stream, one
// goroutine per shard, reading each store in place under the shard
// locks the caller holds. Each shard buffers its accruals, and the
// buffers fold into the alert log afterwards in shard order: the
// order a pass over the shards one after the other accrues in, so
// alert sequence numbers, suspicions and FirstFlagged come out the
// same as that pass's.
func (s *Streaming) rebuild() {
	bufs, _ := parallel.Map(len(s.shards), len(s.shards), func(i int) ([]accrual, error) {
		ss := s.shards[i]
		ss.buffering = true
		pushed, maxT := 0, math.Inf(-1)
		s.engine.states[i].store.Each(func(_ rating.ObjectID, rs []rating.Rating) {
			for _, r := range rs {
				if s.pushOne(i, ss, r) {
					pushed++
				}
			}
			maxT = max(maxT, rs[len(rs)-1].Time)
		})
		s.countPushed(i, pushed)
		s.noteTime(maxT)
		buf := ss.accruals
		ss.buffering, ss.accruals = false, nil
		return buf, nil
	})
	for _, buf := range bufs {
		for _, a := range buf {
			s.sink.accrueStream(a.rater, a.obj, a.delta, a.at)
		}
	}
}

// observe enqueues one accepted shard batch for the shard's pump. It
// is called with the shard's lock held (order there fixes tie order),
// so it must never block: full queues shed.
func (s *Streaming) observe(shard int, rs []rating.Rating) {
	ss := s.shards[shard]
	cp := make([]rating.Rating, len(rs))
	copy(cp, rs)
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	select {
	case ss.ch <- cp:
		ss.pending++
	default:
		s.shed.Add(int64(len(rs)))
		s.engine.metrics.streamShed(shard, len(rs))
	}
	ss.mu.Unlock()
}

func (s *Streaming) pump(shard int) {
	defer s.wg.Done()
	ss := s.shards[shard]
	for batch := range ss.ch {
		s.consumeBatch(shard, ss, batch)
		ss.mu.Lock()
		ss.pending--
		if ss.pending == 0 {
			ss.cond.Broadcast()
		}
		ss.mu.Unlock()
	}
}

func (s *Streaming) consumeBatch(shard int, ss *streamShard, batch []rating.Rating) {
	maxT := math.Inf(-1)
	pushed := 0
	for _, r := range batch {
		if s.pushOne(shard, ss, r) {
			pushed++
		}
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	s.countPushed(shard, pushed)
	s.noteTime(maxT)
	s.fireDue()
}

// pushOne feeds one rating to its object's stream and reports whether
// the stream accepted it. Ratings behind the object's stream clock are
// skipped and counted: the advisory path holds no reorder buffer, and
// the store — which batch windows read — keeps them regardless.
// Acceptance counters are the caller's to batch via countPushed; the
// rare late drops are counted here.
func (s *Streaming) pushOne(shard int, ss *streamShard, r rating.Rating) bool {
	ds := ss.objs[r.Object]
	if ds == nil {
		var err error
		if ds, err = detector.NewStream(s.cfg.Detector); err != nil {
			return false // unreachable: config validated in EnableStreaming
		}
		obj := r.Object
		ds.OnAccrue = func(id rating.RaterID, delta, at float64) {
			if ss.buffering {
				ss.accruals = append(ss.accruals, accrual{id, obj, delta, at})
				return
			}
			s.sink.accrueStream(id, obj, delta, at)
		}
		ss.objs[r.Object] = ds
	}
	if _, err := ds.Push(r); err != nil {
		s.lateDropped.Add(1)
		s.engine.metrics.streamLate(shard)
		return false
	}
	return true
}

// countPushed folds one batch's accepted-rating count into the stream
// counters — one pair of atomic updates per batch, not per rating.
func (s *Streaming) countPushed(shard, n int) {
	if n <= 0 {
		return
	}
	s.pushed.Add(int64(n))
	s.engine.metrics.streamPushed(shard, n)
}

func (s *Streaming) noteTime(t float64) {
	if math.IsInf(t, -1) {
		return
	}
	s.timeMu.Lock()
	if t > s.maxTime {
		s.maxTime = t
	}
	s.timeMu.Unlock()
}

// fireDue closes every maintenance window whose boundary the rating
// clock has passed, in order. fireMu serializes concurrent pumps;
// nextDue advances under timeMu inside the fireMu region, so windows
// never fire twice or out of order.
func (s *Streaming) fireDue() {
	if s.cfg.MaintainEvery <= 0 || s.cfg.OnWindowDue == nil {
		return
	}
	s.fireMu.Lock()
	defer s.fireMu.Unlock()
	for {
		s.timeMu.Lock()
		due := s.maxTime >= s.nextDue
		var start, end float64
		if due {
			end = s.nextDue
			start = end - s.cfg.MaintainEvery
			s.nextDue += s.cfg.MaintainEvery
		}
		s.timeMu.Unlock()
		if !due {
			return
		}
		s.cfg.OnWindowDue(start, end)
	}
}

// Alerts returns the engine's alert log.
func (s *Streaming) Alerts() *AlertLog { return s.sink }

// Stats snapshots the streaming counters.
func (s *Streaming) Stats() StreamStats {
	s.sink.mu.Lock()
	alerts := len(s.sink.alerts)
	s.sink.mu.Unlock()
	return StreamStats{
		Pushed:      s.pushed.Load(),
		LateDropped: s.lateDropped.Load(),
		Shed:        s.shed.Load(),
		Alerts:      alerts,
	}
}

// Sync blocks until every batch observed so far has been pumped
// through the streams — the test and benchmark barrier.
func (s *Streaming) Sync() {
	for _, ss := range s.shards {
		ss.mu.Lock()
		for ss.pending > 0 {
			ss.cond.Wait()
		}
		ss.mu.Unlock()
	}
}

// Close stops the pumps after draining every queued batch. The engine
// keeps serving; only the advisory path stops. Close is idempotent.
func (s *Streaming) Close() {
	for _, ss := range s.shards {
		ss.mu.Lock()
		if !ss.closed {
			ss.closed = true
			close(ss.ch)
		}
		ss.mu.Unlock()
	}
	s.wg.Wait()
}

// Fingerprint renders the streaming suspicion state in canonical
// order at full float precision: per-rater AR-stream suspicion totals
// folded over (rater, object) ascending — an order-free fold, so the
// result is independent of how shard pumps interleaved — plus the
// stream- and window-flagged sets and the late-drop counter. Callers
// should Sync() first.
func (s *Streaming) Fingerprint() string {
	s.sink.mu.Lock()
	keys := make([]raterObj, 0, len(s.sink.byRaterObj))
	for k := range s.sink.byRaterObj {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rater != keys[j].rater {
			return keys[i].rater < keys[j].rater
		}
		return keys[i].obj < keys[j].obj
	})
	totals := make(map[rating.RaterID]float64)
	var order []rating.RaterID
	for _, k := range keys {
		if _, ok := totals[k.rater]; !ok {
			order = append(order, k.rater)
		}
		totals[k.rater] += s.sink.byRaterObj[k]
	}
	var streamFlagged, windowFlagged []rating.RaterID
	for k := range s.sink.flagged {
		switch k.source {
		case AlertSourceStream:
			streamFlagged = append(streamFlagged, k.rater)
		case AlertSourceWindow:
			windowFlagged = append(windowFlagged, k.rater)
		}
	}
	s.sink.mu.Unlock()
	sort.Slice(streamFlagged, func(i, j int) bool { return streamFlagged[i] < streamFlagged[j] })
	sort.Slice(windowFlagged, func(i, j int) bool { return windowFlagged[i] < windowFlagged[j] })

	var b strings.Builder
	for _, id := range order {
		fmt.Fprintf(&b, "stream-suspicion %d %.17g\n", id, totals[id])
	}
	fmt.Fprintf(&b, "stream-flagged %v\n", streamFlagged)
	fmt.Fprintf(&b, "window-flagged %v\n", windowFlagged)
	fmt.Fprintf(&b, "late-dropped %d\n", s.lateDropped.Load())
	return b.String()
}
