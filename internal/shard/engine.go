package shard

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/trust"
)

// Engine is the sharded counterpart of core.System: per-object state
// (the rating store) is partitioned across N shards, each behind its
// own mutex, while the trust manager stays global behind a
// reader-writer lock (raters span shards). All per-object arithmetic
// runs through the same core.Pipeline a single-shard System uses, and
// maintenance windows fold shard evidence in ascending object order —
// the canonical order a System charges in — so trust records,
// aggregates and detector verdicts are bit-identical for any shard
// count.
//
// Locking: there is no engine-wide lock on the ingest path. The
// states slice is immutable after construction — a snapshot pointer
// readers load without coordination — and each shard's store is
// guarded only by that shard's mutex (the store pointer itself swaps
// only under it, in LoadSnapshot). Cross-shard operations that need a
// frozen view (ProcessWindow, View, LoadSnapshot) take every shard
// lock in ascending index order, so a window still sees a consistent
// cross-shard state while distinct shards ingest fully in parallel
// the rest of the time. Per-shard rating counts are mirrored in
// atomic counters so Len (stats, telemetry) never touches a shard
// lock while ingest runs.
type Engine struct {
	cfg  core.Config
	pipe *core.Pipeline

	states []*shardState // immutable after NewEngine

	trustMu sync.RWMutex
	manager *trust.Manager
	// lastWindowEnd is the highest window end ProcessWindow has applied
	// (guarded by trustMu). Shard snapshots persist it so recovery can
	// hand EnableStreaming a ResumeAfter that never re-fires a window
	// whose charge is already durable.
	lastWindowEnd float64

	// streaming, when set, is the online detection path (see
	// EnableStreaming). Published once under all shard locks; the
	// submit path does a single atomic load.
	streaming atomic.Pointer[Streaming]

	metrics *Metrics
}

type shardState struct {
	mu    sync.Mutex
	store *rating.Store
	count atomic.Int64 // mirrors store.Len() for lock-free reads
}

// NewEngine builds an engine with the given shard count. The same
// configuration defaulting and validation as core.NewSystem applies.
func NewEngine(cfg core.Config, shards int) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d", shards)
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	cfg = pipe.Config()
	manager, err := trust.NewManager(cfg.Trust)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	states := make([]*shardState, shards)
	for i := range states {
		states[i] = &shardState{store: rating.NewStore()}
	}
	return &Engine{cfg: cfg, pipe: pipe, states: states, manager: manager}, nil
}

// SetMetrics attaches per-shard telemetry; nil disables it. Call
// before serving traffic.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.states) }

// ShardFor returns the shard an object routes to.
func (e *Engine) ShardFor(obj rating.ObjectID) int { return ShardFor(obj, len(e.states)) }

// Submit records one raw rating in its object's shard.
func (e *Engine) Submit(r rating.Rating) error {
	return e.SubmitShard(e.ShardFor(r.Object), []rating.Rating{r})
}

// SubmitAll splits the batch by object shard and applies each group
// with one merge pass per shard. Validation is all-or-nothing per
// shard group; a rejected group leaves other shards' groups applied
// (callers wanting atomicity validate upfront, as the Router does).
func (e *Engine) SubmitAll(rs []rating.Rating) error {
	if len(rs) == 0 {
		return nil
	}
	n := len(e.states)
	groups := make(map[int][]rating.Rating, n)
	for _, r := range rs {
		s := ShardFor(r.Object, n)
		groups[s] = append(groups[s], r)
	}
	shards := make([]int, 0, len(groups))
	for s := range groups {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		if err := e.SubmitShard(s, groups[s]); err != nil {
			return err
		}
	}
	return nil
}

// SubmitShard applies one shard's batch with a single merge pass. All
// ratings must route to shard i; misrouted or malformed ratings are
// rejected before anything is applied (recovery relies on placement
// being a pure function of the object ID). Validation and the
// placement check run fused in one scan of the batch — the only
// pre-pass on the hot path — and the store merge skips revalidation.
func (e *Engine) SubmitShard(i int, rs []rating.Rating) error {
	if i < 0 || i >= len(e.states) {
		return fmt.Errorf("shard: shard %d of %d", i, len(e.states))
	}
	n := len(e.states)
	for k, r := range rs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("shard: rating %d: %w", k, err)
		}
		if want := ShardFor(r.Object, n); want != i {
			return fmt.Errorf("shard: object %d routes to shard %d, not %d", r.Object, want, i)
		}
	}
	st := e.states[i]
	st.mu.Lock()
	st.store.AddBatchValidated(rs)
	st.count.Store(int64(st.store.Len()))
	// The streaming observe stays inside the shard lock so the pump's
	// batch order matches the store's tie order; it only copies the
	// batch and does a non-blocking enqueue, so the ack path never
	// waits on detection.
	if sp := e.streaming.Load(); sp != nil {
		sp.observe(i, rs)
	}
	st.mu.Unlock()
	e.metrics.ingested(i, len(rs))
	return nil
}

// Len returns the total number of stored ratings across shards. It
// reads the per-shard atomic counters, so it is safe to call from
// stats and telemetry at any frequency while ingest runs without
// touching a shard lock.
func (e *Engine) Len() int {
	total := int64(0)
	for _, st := range e.states {
		total += st.count.Load()
	}
	return int(total)
}

// lockAll acquires every shard lock in ascending index order — the
// canonical order every multi-shard locker uses, so cross-shard
// freezes never deadlock against each other.
func (e *Engine) lockAll() {
	for _, st := range e.states {
		st.mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for _, st := range e.states {
		st.mu.Unlock()
	}
}

// ProcessWindow runs one maintenance pass over every shard's objects
// with time in [start, end), then applies the combined Procedure 2
// evidence to the global trust manager. Objects are scanned and
// charged in ascending object ID order across all shards — exactly
// the fold a single-shard System performs — so the resulting trust
// records are bit-identical for any shard count.
func (e *Engine) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	if end <= start {
		return core.ProcessReport{}, fmt.Errorf("shard: window [%g,%g)", start, end)
	}
	winSpan := e.cfg.Metrics.StartWindow()
	e.lockAll()
	defer e.unlockAll()
	scans, err := e.scanLocked(start, end)
	if err != nil {
		return core.ProcessReport{}, err
	}

	report := core.ProcessReport{
		Start:        start,
		End:          end,
		Observations: make(map[rating.RaterID]trust.Observation),
	}
	chargeSpan := e.cfg.Metrics.Stage(core.StageCharge)
	for _, scan := range scans {
		if !scan.OK {
			continue
		}
		report.Objects = append(report.Objects, scan.Report)
		e.pipe.Charge(report.Observations, scan)
	}
	if err := e.pipe.ChargeWindow(report.Observations, scans); err != nil {
		return core.ProcessReport{}, err
	}
	chargeSpan.End()

	if err := e.applyWindow(report.Observations, end, e.cfg.Metrics.Stage(core.StageTrustUpdate)); err != nil {
		return core.ProcessReport{}, err
	}
	winSpan.End()
	e.cfg.Metrics.WindowDone(&report)
	return report, nil
}

// Aggregate returns the object's trust-enhanced aggregate, computed
// from the current state on every call, as core.System computes it.
func (e *Engine) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	st := e.states[e.ShardFor(obj)]
	st.mu.Lock()
	stored, err := st.store.ForObject(obj)
	st.mu.Unlock()
	if err != nil {
		// Worded as core.System words it: the unknown-object message
		// is part of the wire contract, whatever engine serves it.
		return core.AggregateResult{}, fmt.Errorf("core: %w", err)
	}
	// stored is ForObject's copy: safe to read outside the shard lock.
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	return e.pipe.AggregateRatings(obj, stored, e.manager.Trust)
}

// TrustIn returns the system's current trust in a rater. An engine's
// reads never fail; the error is the server.Backend signature's.
func (e *Engine) TrustIn(id rating.RaterID) (float64, error) {
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	return e.manager.Trust(id), nil
}

// TrustSnapshot returns every tracked rater's trust.
func (e *Engine) TrustSnapshot() map[rating.RaterID]float64 {
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	return e.manager.Snapshot()
}

// Stats is the state summary GET /v1/stats serves.
type Stats struct {
	Ratings   int // stored ratings
	Raters    int // tracked trust records
	Malicious int // raters below the malicious-trust threshold
	// Distribution holds the cumulative count of raters with trust at
	// or below each requested bound (see trust.Manager); nil when no
	// bounds were given.
	Distribution []int
}

// Stats summarizes the engine's state. The rating count comes from
// the per-shard counters, so it touches no shard lock. It never fails.
func (e *Engine) Stats(bounds []float64) (Stats, error) {
	st := Stats{Ratings: e.Len()}
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	st.Raters = e.manager.Len()
	st.Malicious = len(e.manager.Malicious())
	if len(bounds) > 0 {
		st.Distribution = e.manager.TrustDistribution(bounds)
	}
	return st, nil
}

// MaliciousRaters returns raters below the malicious-trust threshold,
// ascending. It never fails.
func (e *Engine) MaliciousRaters() ([]rating.RaterID, error) {
	return e.maliciousRaters(), nil
}

func (e *Engine) maliciousRaters() []rating.RaterID {
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	return e.manager.Malicious()
}

// View captures the engine's full state as a copy: every shard's
// ratings in shard order (each shard's objects in first-seen order),
// plus every trust record.
func (e *Engine) View() core.StateView {
	e.lockAll()
	defer e.unlockAll()
	return e.viewLocked()
}

func (e *Engine) viewLocked() core.StateView {
	e.trustMu.RLock()
	v := core.StateView{Records: e.manager.Records()}
	e.trustMu.RUnlock()
	n := 0
	for _, st := range e.states {
		n += st.store.Len()
	}
	v.Ratings = slices.Grow(v.Ratings, n)
	for _, st := range e.states {
		v.Ratings = appendStoreRatings(v.Ratings, st.store)
	}
	return v
}

// shardView captures one shard's ratings plus the full (global) trust
// record set — every shard snapshot is a self-sufficient carrier of
// the trust state, so recovery can take the records from whichever
// shard snapshot is newest.
func (e *Engine) shardView(i int) core.StateView {
	e.trustMu.RLock()
	v := core.StateView{Records: e.manager.Records()}
	e.trustMu.RUnlock()
	st := e.states[i]
	st.mu.Lock()
	v.Ratings = appendStoreRatings(nil, st.store)
	st.mu.Unlock()
	return v
}

// appendStoreRatings appends every rating of store to dst, each
// object's in time order and the objects in first-seen order, growing
// dst at most once.
func appendStoreRatings(dst []rating.Rating, store *rating.Store) []rating.Rating {
	dst = slices.Grow(dst, store.Len())
	store.Each(func(_ rating.ObjectID, rs []rating.Rating) {
		dst = append(dst, rs...)
	})
	return dst
}

// WriteSnapshot serializes the full engine state in the core snapshot
// format. The locks are held only while the state is copied; encoding
// runs outside the critical section.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return e.View().Encode(w)
}

// LoadSnapshot replaces the engine's state with a core snapshot,
// rerouting every rating to its shard under the current shard count.
// On error the previous state is preserved.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	v, err := core.DecodeSnapshot(r)
	if err != nil {
		return err
	}
	return e.loadView(v)
}

// loadView is LoadSnapshot on a decoded view: every rating validated
// into a store under the current shard count, the trust records
// restored, then one swap under all locks.
func (e *Engine) loadView(v core.StateView) error {
	stores := make([]*rating.Store, len(e.states))
	for i := range stores {
		stores[i] = rating.NewStore()
	}
	for i, sr := range v.Ratings {
		if err := stores[ShardFor(sr.Object, len(stores))].Add(sr); err != nil {
			return fmt.Errorf("shard: snapshot rating %d: %w", i, err)
		}
	}
	manager, err := trust.NewManager(e.cfg.Trust)
	if err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	if err := manager.Restore(v.Records); err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}

	e.lockAll()
	defer e.unlockAll()
	for i := range e.states {
		e.states[i].store = stores[i]
		e.states[i].count.Store(int64(stores[i].Len()))
	}
	e.trustMu.Lock()
	e.manager = manager
	// A core snapshot carries no window history; recovery (Recover)
	// restores the durable high-water mark right after seeding.
	e.lastWindowEnd = 0
	e.trustMu.Unlock()
	return nil
}

// LastWindowEnd reports the highest maintenance-window end applied to
// this engine (including windows restored by Recover). Zero means no
// window has ever run.
func (e *Engine) LastWindowEnd() float64 {
	e.trustMu.RLock()
	defer e.trustMu.RUnlock()
	return e.lastWindowEnd
}

// setLastWindowEnd force-sets the window high-water mark; recovery
// uses it after snapshot seeding.
func (e *Engine) setLastWindowEnd(end float64) {
	e.trustMu.Lock()
	if end > e.lastWindowEnd {
		e.lastWindowEnd = end
	}
	e.trustMu.Unlock()
}
