package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/wal"
)

// FollowerConfig configures a replication follower.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL (no trailing slash needed).
	PrimaryURL string
	// Engine receives the replicated state. The follower owns its
	// mutations: nothing else may write to it while Run is active.
	Engine  *shard.Engine
	Metrics *Metrics
	// Seed drives the reconnect backoff jitter. Followers sharing a
	// seed still diverge per shard (and per follower via PrimaryURL
	// mixing is the caller's concern — pass distinct seeds).
	Seed int64
	// ReconnectMin/Max bound the decorrelated-jitter backoff between
	// failed connects (defaults 50ms / 5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// FrameTimeout is the per-frame liveness watchdog: a stream that
	// goes silent this long (no frame, not even a heartbeat) is cut
	// and redialed (default 15s).
	FrameTimeout time.Duration
	// Warnf receives degradation warnings; nil discards.
	Warnf func(format string, args ...any)
	// Now is a test seam; nil means time.Now.
	Now func() time.Time
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ReconnectMin == 0 {
		c.ReconnectMin = 50 * time.Millisecond
	}
	if c.ReconnectMax == 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.FrameTimeout == 0 {
		c.FrameTimeout = 15 * time.Second
	}
	if c.Warnf == nil {
		c.Warnf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Metrics = c.Metrics.orNoop()
	return c
}

// followerClient issues every follower request. It has no overall
// timeout: streams long-poll, and per-frame liveness is the
// FrameTimeout watchdog's job.
var followerClient = &http.Client{}

var (
	errStopped = errors.New("repl: follower stopped")
	errResync  = errors.New("repl: stream resync")
	// errReset asks for a full snapshot re-bootstrap.
	errReset = errors.New("repl: re-bootstrap required")
)

// pendingBarrier is a maintenance barrier some shard streams have
// reached and others haven't. The last arriver applies the window.
type pendingBarrier struct {
	seq        uint64
	start, end float64
	arrived    []bool
	count      int
}

// Follower bootstraps from a primary's snapshot and tails its shard
// logs, keeping its Engine byte-identical to the primary's state at
// every barrier. Reads (Lag, Status) are safe concurrently with Run;
// Stop (or the Run context) ends replication, leaving the engine at
// the last applied batch — promotion then truncates to the last
// complete barrier simply because un-aligned pending barriers are
// dropped, never half-applied. Replicated batches, windows and
// bootstraps change the engine only; its reads compute from current
// state, so the serving layer needs no hook to stay fresh.
type Follower struct {
	cfg FollowerConfig

	mu          sync.Mutex
	cond        *sync.Cond
	started     bool
	stopped     bool
	reset       bool
	done        chan struct{}
	cancel      context.CancelFunc
	cancelRound context.CancelFunc

	// Replicated-state tracking, valid once bootstrapped.
	bootstrapped   bool
	epoch          int
	shards         int
	appliedBarrier uint64
	pending        *pendingBarrier
	base           []uint64     // primary appended count at bootstrap, per shard
	applied        []uint64     // records applied since bootstrap, per shard
	total          []uint64     // latest primary appended count seen, per shard
	curs           []wal.Cursor // resume cursors, per shard
	syncTS         []float64    // primary clock of the state we reflect, per shard
	lastContact    time.Time    // last successful read from the primary

	resyncs    uint64
	reconnects uint64
	bootstraps uint64
}

// NewFollower returns an idle follower; call Run to start replicating.
func NewFollower(cfg FollowerConfig) *Follower {
	f := &Follower{cfg: cfg.withDefaults(), done: make(chan struct{})}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Run replicates until ctx is canceled or Stop is called. It returns
// nil on a clean stop; bootstrap failures are retried with backoff,
// never returned.
func (f *Follower) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return errors.New("repl: follower already running")
	}
	f.started = true
	f.cancel = cancel
	f.mu.Unlock()
	defer close(f.done)

	stop := context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop()

	backoff, rng := f.reconnect(1 << 16)
	for {
		if f.isStopped() || ctx.Err() != nil {
			return nil
		}
		if err := f.bootstrap(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			f.cfg.Warnf("repl: bootstrap from %s: %v", f.cfg.PrimaryURL, err)
			if randx.SleepCtx(ctx, backoff.Next(rng)) != nil {
				return nil
			}
			continue
		}
		backoff.Reset()

		// Each bootstrap round gets its own context so a reset request
		// (or Stop) wakes tailers blocked in a long-poll read.
		roundCtx, cancelRound := context.WithCancel(ctx)
		f.mu.Lock()
		shards := f.shards
		f.cancelRound = cancelRound
		f.mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f.tail(roundCtx, i)
			}(i)
		}
		wg.Wait()
		cancelRound()
		// All tailers exited: stop, context, or a reset request. The
		// loop re-bootstraps in the latter case.
	}
}

// Stop ends replication and waits for Run to return. Idempotent.
func (f *Follower) Stop() {
	f.mu.Lock()
	f.stopped = true
	started := f.started
	cancel := f.cancel
	f.cond.Broadcast()
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if started {
		<-f.done
	}
}

func (f *Follower) isStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

// requestReset asks every tailer to exit so Run re-bootstraps.
func (f *Follower) requestReset(why string, args ...any) {
	f.cfg.Warnf("repl: re-bootstrap: "+why, args...)
	f.mu.Lock()
	f.reset = true
	f.pending = nil
	cancelRound := f.cancelRound
	f.cond.Broadcast()
	f.mu.Unlock()
	if cancelRound != nil {
		cancelRound()
	}
}

func (f *Follower) url(pathAndQuery string) string {
	return f.cfg.PrimaryURL + pathAndQuery
}

// bootstrap fetches a fresh verified snapshot set and replaces the
// engine state with it via the same shard.Recover path local recovery
// uses.
func (f *Follower) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url("/v1/repl/snapshot"), nil)
	if err != nil {
		return err
	}
	resp, err := followerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("bootstrap status %d: %s", resp.StatusCode, body)
	}
	var boot api.ReplBootstrapResponse
	if err := json.NewDecoder(resp.Body).Decode(&boot); err != nil {
		return fmt.Errorf("bootstrap decode: %w", err)
	}
	if boot.Shards < 1 || len(boot.Snapshots) != boot.Shards {
		return fmt.Errorf("bootstrap shape: %d snapshots for %d shards", len(boot.Snapshots), boot.Shards)
	}

	// Verify every snapshot end-to-end before any of it touches the
	// engine: the trailing footer binds content, length and the lag
	// baseline together under one CRC32C.
	recovered := make([]shard.RecoveredShard, boot.Shards)
	base := make([]uint64, boot.Shards)
	curs := make([]wal.Cursor, boot.Shards)
	for _, s := range boot.Snapshots {
		if s.Shard < 0 || s.Shard >= boot.Shards {
			return fmt.Errorf("bootstrap shard %d out of range", s.Shard)
		}
		content, ft, present, err := wal.SplitSnapshotFooter(s.Data)
		if err != nil {
			return fmt.Errorf("shard %d snapshot verification: %w", s.Shard, err)
		}
		if !present {
			return fmt.Errorf("shard %d snapshot has no verification footer", s.Shard)
		}
		if ft.Records != s.Base {
			return fmt.Errorf("shard %d snapshot baseline %d != advertised %d", s.Shard, ft.Records, s.Base)
		}
		recovered[s.Shard] = shard.RecoveredShard{Snapshot: content}
		base[s.Shard] = ft.Records
		curs[s.Shard] = wal.Cursor{Seg: s.Seg}
	}
	stats, err := shard.Recover(f.cfg.Engine, recovered, f.cfg.Warnf)
	if err != nil {
		return fmt.Errorf("bootstrap recover: %w", err)
	}
	if want := boot.BarrierSeq + 1; stats.NextSeq != want {
		return fmt.Errorf("bootstrap barrier height %d != advertised %d", stats.NextSeq-1, boot.BarrierSeq)
	}

	now := f.cfg.Now()
	f.mu.Lock()
	f.bootstrapped = true
	f.reset = false
	f.epoch = boot.Epoch
	f.shards = boot.Shards
	f.appliedBarrier = boot.BarrierSeq
	f.pending = nil
	f.base = base
	f.applied = make([]uint64, boot.Shards)
	f.total = append([]uint64(nil), base...)
	f.curs = curs
	f.syncTS = make([]float64, boot.Shards)
	for i := range f.syncTS {
		f.syncTS[i] = boot.TS
	}
	f.lastContact = now
	f.bootstraps++
	f.mu.Unlock()
	f.cfg.Metrics.Bootstraps.Inc()
	f.publishLag()
	return nil
}

// tail streams one shard log, reconnecting with decorrelated-jitter
// backoff, until stop/reset/context-end.
func (f *Follower) tail(ctx context.Context, shardIdx int) {
	backoff, rng := f.reconnect(shardIdx)
	first := true
	for {
		f.mu.Lock()
		stop := f.stopped || f.reset
		cur := wal.Cursor{}
		epoch := 0
		if !stop {
			cur, epoch = f.curs[shardIdx], f.epoch
		}
		f.mu.Unlock()
		if stop || ctx.Err() != nil {
			return
		}
		err := f.streamOnce(ctx, shardIdx, epoch, cur, &first)
		switch {
		case ctx.Err() != nil || f.isStopped():
			return
		case errors.Is(err, errReset):
			f.requestReset("shard %d: %v", shardIdx, err)
			return
		case errors.Is(err, errStopped):
			return
		case errors.Is(err, errResync):
			// Torn frame / decode garbage: drop the connection and
			// re-request from the last verified cursor.
			f.mu.Lock()
			f.resyncs++
			f.mu.Unlock()
			f.cfg.Metrics.Resyncs.Inc()
		case err != nil:
			if randx.SleepCtx(ctx, backoff.Next(rng)) != nil {
				return
			}
			continue
		}
		// Clean long-poll end (or resync): reconnect promptly.
		backoff.Reset()
	}
}

// streamOnce runs a single stream request until it ends. A nil return
// is a clean long-poll end; errResync/errReset request recovery; any
// other error is a transport failure worth backing off from.
func (f *Follower) streamOnce(ctx context.Context, shardIdx, epoch int, cur wal.Cursor, first *bool) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	u := fmt.Sprintf("%s/v1/repl/stream?shard=%d&epoch=%d&seg=%d&off=%d",
		f.cfg.PrimaryURL, shardIdx, epoch, cur.Seg, cur.Off)
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := followerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%w: primary refused epoch %d", errReset, epoch)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if !*first {
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		f.cfg.Metrics.Reconnects.Inc()
	}
	*first = false

	// Per-frame liveness watchdog: heartbeats arrive even on an idle
	// stream, so silence means a dead peer or a wedged connection.
	watchdog := time.AfterFunc(f.cfg.FrameTimeout, cancel)
	defer watchdog.Stop()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		watchdog.Stop()
		line := sc.Bytes()
		if len(line) == 0 {
			watchdog.Reset(f.cfg.FrameTimeout)
			continue
		}
		var frame api.ReplFrame
		if err := json.Unmarshal(line, &frame); err != nil {
			return fmt.Errorf("%w: frame decode: %v", errResync, err)
		}
		if err := f.applyFrame(shardIdx, frame); err != nil {
			return err
		}
		watchdog.Reset(f.cfg.FrameTimeout)
	}
	if err := sc.Err(); err != nil && reqCtx.Err() != nil && ctx.Err() == nil {
		// The watchdog cut a silent stream; surface it as a transport
		// error so the tailer backs off and redials.
		return fmt.Errorf("stream silent past frame timeout")
	} else if err != nil {
		return err
	}
	return nil
}

// applyFrame applies one stream frame to the engine and the cursor
// bookkeeping. Barrier frames block until every shard stream aligns.
func (f *Follower) applyFrame(shardIdx int, frame api.ReplFrame) error {
	if frame.Shard != shardIdx {
		return fmt.Errorf("%w: frame for shard %d on stream %d", errResync, frame.Shard, shardIdx)
	}
	switch frame.Type {
	case api.FrameReset:
		return fmt.Errorf("%w: primary compacted past our cursor", errReset)
	case api.FrameRecords:
		rs := make([]rating.Rating, len(frame.Records))
		for i, p := range frame.Records {
			rs[i] = p.Rating()
		}
		if err := f.cfg.Engine.SubmitAll(rs); err != nil {
			// The engine refused replicated records: state may have
			// diverged, only a fresh snapshot reconciles it.
			return fmt.Errorf("%w: apply %d records: %v", errReset, len(rs), err)
		}
		if err := f.advance(shardIdx, frame, uint64(len(rs))); err != nil {
			return err
		}
	case api.FrameBarrier:
		if err := f.applyBarrier(shardIdx, frame); err != nil {
			return err
		}
		if err := f.advance(shardIdx, frame, 1); err != nil {
			return err
		}
	case api.FrameSegment, api.FrameHeartbeat:
		if err := f.advance(shardIdx, frame, 0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown frame type %q", errResync, frame.Type)
	}
	f.cfg.Metrics.Frames.Inc()
	return nil
}

// advance moves shardIdx's cursor past frame and refreshes the lag
// accounting.
func (f *Follower) advance(shardIdx int, frame api.ReplFrame, nApplied uint64) error {
	now := f.cfg.Now()
	f.mu.Lock()
	f.curs[shardIdx] = wal.Cursor{Seg: frame.Seg, Off: frame.Off}
	f.applied[shardIdx] += nApplied
	if frame.Total < f.total[shardIdx] {
		// The primary's appended counter went backwards: it restarted
		// (or we're talking to a different one). The state replicated
		// so far is still sound, but the lag baseline isn't; start over
		// from a fresh snapshot rather than serve unmeasurable lag.
		was := f.total[shardIdx]
		f.mu.Unlock()
		return fmt.Errorf("%w: primary appended count regressed %d -> %d",
			errReset, was, frame.Total)
	}
	f.total[shardIdx] = frame.Total
	if f.base[shardIdx]+f.applied[shardIdx] >= frame.Total {
		// Caught up as of this frame: the state we reflect is as fresh
		// as the primary's clock when it sent it.
		f.syncTS[shardIdx] = frame.TS
	}
	f.lastContact = now
	f.mu.Unlock()
	f.publishLag()
	return nil
}

// applyBarrier blocks shardIdx at barrier frame until every shard
// stream arrives, then the last arriver applies the window once.
func (f *Follower) applyBarrier(shardIdx int, frame api.ReplFrame) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped || f.reset {
		return errStopped
	}
	if frame.Seq <= f.appliedBarrier {
		// Duplicate delivery after a resync replayed the barrier frame;
		// the window already ran.
		return nil
	}
	if frame.Seq != f.appliedBarrier+1 {
		return fmt.Errorf("%w: barrier %d after %d (gap)", errReset, frame.Seq, f.appliedBarrier)
	}
	if f.pending == nil {
		f.pending = &pendingBarrier{
			seq: frame.Seq, start: frame.Start, end: frame.End,
			arrived: make([]bool, f.shards),
		}
	} else if f.pending.seq != frame.Seq || f.pending.start != frame.Start || f.pending.end != frame.End {
		return fmt.Errorf("%w: barrier %d mismatch across shards", errReset, frame.Seq)
	}
	if !f.pending.arrived[shardIdx] {
		f.pending.arrived[shardIdx] = true
		f.pending.count++
	}
	if f.pending.count == f.shards {
		// Last arriver applies. Window errors degrade per-object inside
		// the engine; an outright failure is warned and skipped exactly
		// like local WAL replay does.
		if _, err := f.cfg.Engine.ProcessWindow(frame.Start, frame.End); err != nil {
			f.cfg.Warnf("repl: barrier %d window [%g,%g): %v", frame.Seq, frame.Start, frame.End, err)
		}
		f.appliedBarrier = frame.Seq
		f.pending = nil
		f.cond.Broadcast()
		return nil
	}
	seq := frame.Seq
	for !f.stopped && !f.reset && f.appliedBarrier < seq {
		f.cond.Wait()
	}
	if f.appliedBarrier >= seq {
		return nil
	}
	// Stopped or reset while waiting: the pending barrier is dropped,
	// never half-applied — promotion truncates to the last complete
	// barrier by construction.
	return errStopped
}

// Lag returns the follower's staleness: records behind the primary
// and the wall-clock age (seconds) of the primary state it reflects.
// ok is false until the first successful bootstrap.
func (f *Follower) Lag() (records uint64, seconds float64, ok bool) {
	now := f.cfg.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagLocked(now)
}

func (f *Follower) lagLocked(now time.Time) (records uint64, seconds float64, ok bool) {
	if !f.bootstrapped {
		return 0, 0, false
	}
	oldest := 0.0
	for i := range f.total {
		if have := f.base[i] + f.applied[i]; f.total[i] > have {
			records += f.total[i] - have
		}
		if i == 0 || f.syncTS[i] < oldest {
			oldest = f.syncTS[i]
		}
	}
	seconds = float64(now.UnixNano())/1e9 - oldest
	if seconds < 0 {
		seconds = 0
	}
	return records, seconds, true
}

func (f *Follower) publishLag() {
	now := f.cfg.Now()
	f.mu.Lock()
	records, seconds, ok := f.lagLocked(now)
	f.mu.Unlock()
	if ok {
		f.cfg.Metrics.LagRecords.Set(float64(records))
		f.cfg.Metrics.LagSeconds.Set(seconds)
	}
}

// LastContact returns when the follower last heard from the primary
// (zero time before the first bootstrap). The promote-on-death
// harness compares it against its deadline.
func (f *Follower) LastContact() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastContact
}

// AppliedBarrier returns the last fully applied barrier sequence.
func (f *Follower) AppliedBarrier() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedBarrier
}

// Epoch returns the primary epoch the follower replicated (0 before
// bootstrap).
func (f *Follower) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Status reports the follower's replication state.
func (f *Follower) Status() api.ReplStatusResponse {
	now := f.cfg.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	records, seconds, _ := f.lagLocked(now)
	resp := api.ReplStatusResponse{
		Role:       api.RoleFollower,
		Epoch:      f.epoch,
		Shards:     f.shards,
		BarrierSeq: f.appliedBarrier,
		Primary:    f.cfg.PrimaryURL,
		LagRecords: records,
		LagSeconds: seconds,
		Resyncs:    f.resyncs,
		Reconnects: f.reconnects,
	}
	for i := range f.curs {
		resp.Cursors = append(resp.Cursors, api.ReplCursor{
			Shard: i, Seg: f.curs[i].Seg, Off: f.curs[i].Off, Records: f.applied[i],
		})
	}
	return resp
}

// Promote stops replication and returns the barrier sequence the
// promoted journal should issue next. Any barrier that was pending
// (seen by some shards, not all) is dropped — the follower's state is
// exactly the last complete barrier plus fully-applied rating
// batches, so a new primary continues from a consistent point.
func (f *Follower) Promote() (nextBarrierSeq uint64) {
	f.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedBarrier + 1
}

// reconnect returns the reconnect schedule of one stream (a shard, or
// 1<<16 for bootstrap) and the Rand it draws from, seeded per stream
// so that shards, and followers with distinct seeds, diverge.
func (f *Follower) reconnect(stream int) (randx.Backoff, *randx.Rand) {
	return randx.Backoff{Min: f.cfg.ReconnectMin, Max: f.cfg.ReconnectMax}, randx.DeriveRand(f.cfg.Seed, stream)
}
