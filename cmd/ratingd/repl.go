package main

// Replication role wiring. A -follow daemon starts as a
// bounded-staleness read replica of its primary and can flip — once,
// in place, without restarting — into a primary: on demand (POST
// /v1/repl/promote, or the `ratingd -promote <url>` one-shot) or
// automatically when the primary has been silent past -promote-after.
// Promotion truncates to the follower's last complete barrier (the
// follower drops pending barriers rather than half-applying them) and
// commits that state as a fresh WAL epoch through the same manifest
// machinery shard-count migrations use, so the new primary can
// immediately serve bootstraps and streams to surviving followers.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/repl"
	"repro/internal/server"
)

// newFollower builds the read-replica role: the engine follows the
// primary at -follow, nothing local is recovered and the server keeps
// its default journal — the replica gate refuses mutations before
// they could reach it. Any -shards count works (shard.Recover remaps
// replicated state by hash, so the counts need not match the
// primary's).
func newFollower(o options) (*daemon, error) {
	d, err := newDaemon(o)
	if err != nil {
		return nil, err
	}
	if o.walDir != "" {
		m, ok, err := readManifest(o.walDir)
		if err != nil {
			d.abort()
			return nil, err
		}
		if ok {
			warnf("wal: %s holds epoch %d (%d shards); it stays untouched while following %s and is superseded at promotion",
				o.walDir, m.Epoch, m.Shards, o.follow)
		}
	}
	if err := d.newServer(); err != nil {
		d.abort()
		return nil, err
	}
	seed := o.replSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	d.replM = repl.NewMetrics(d.reg)
	n := &replNode{d: d, follower: repl.NewFollower(repl.FollowerConfig{
		PrimaryURL: o.follow,
		Engine:     d.engine,
		Metrics:    d.replM,
		Seed:       seed,
		OnApply:    d.srv.InvalidateRatings,
		OnWindow:   d.srv.InvalidateAll,
		Warnf:      warnf,
	})}
	d.node = n
	d.srv.SetReplica(n.replicaInfo())
	d.handler = telemetryMux(d.srv, d.reg, o.pprof, n.routes)
	// Run returns once close (or promotion) stops the follower.
	go func() { _ = n.follower.Run(context.Background()) }()
	if o.promoteAfter > 0 {
		d.goBackground(func() { n.deathWatch(d.bg, o.promoteAfter) })
	}
	d.startBackground()
	fmt.Printf("following %s (max lag: %d records / %s)\n", o.follow, o.maxLagRecords, o.maxLag)
	return d, nil
}

// replNode owns a follower daemon's replication role and its /v1/repl
// routes. Promotion builds the journal through the primary's code
// (daemon.newJournal, daemon.replRoutes).
type replNode struct {
	d        *daemon
	follower *repl.Follower

	mu      sync.Mutex
	journal *shardJournal  // non-nil once promoted
	primMux *http.ServeMux // promoted primary's repl routes; nil without a WAL
}

// replicaInfo is the server's per-request staleness sample while the
// node serves as a replica; promotion clears the marker so this stops
// being consulted.
func (n *replNode) replicaInfo() func() server.ReplicaInfo {
	return func() server.ReplicaInfo {
		records, seconds, ok := n.follower.Lag()
		return server.ReplicaInfo{
			Primary:       n.d.o.follow,
			Ready:         ok,
			LagRecords:    records,
			LagSeconds:    seconds,
			MaxLagRecords: n.d.o.maxLagRecords,
			MaxLagSeconds: n.d.o.maxLag.Seconds(),
		}
	}
}

// routes mounts the follower-role replication endpoints on the daemon
// mux. Stream and snapshot answer not_primary until promotion, then
// delegate to the promoted primary's handlers.
func (n *replNode) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	mux.HandleFunc("GET /v1/repl/stream", n.handleReplicated)
	mux.HandleFunc("GET /v1/repl/snapshot", n.handleReplicated)
	mux.HandleFunc("POST /v1/repl/promote", n.handlePromote)
}

func (n *replNode) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	promoted, primMux := n.journal != nil, n.primMux
	n.mu.Unlock()
	if !promoted {
		writeJSON(w, http.StatusOK, n.follower.Status())
		return
	}
	if primMux != nil {
		primMux.ServeHTTP(w, r)
		return
	}
	n.mu.Lock()
	st := n.statusLocked()
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (n *replNode) handleReplicated(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	promoted, primMux := n.journal != nil, n.primMux
	n.mu.Unlock()
	if primMux != nil {
		primMux.ServeHTTP(w, r)
		return
	}
	if promoted {
		writeJSON(w, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable,
			"promoted without -wal; this primary cannot serve replication"))
		return
	}
	writeJSON(w, http.StatusMisdirectedRequest, api.NewError(api.CodeNotPrimary,
		"this node is a follower; replicate from the primary").
		WithPrimary(n.d.o.follow))
}

func (n *replNode) handlePromote(w http.ResponseWriter, r *http.Request) {
	st, err := n.promote("requested via POST /v1/repl/promote")
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			api.NewError(api.CodeUnavailable, "%s", err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// statusLocked reports the promoted role; before promotion the
// follower's own Status is authoritative.
func (n *replNode) statusLocked() api.ReplStatusResponse {
	st := api.ReplStatusResponse{
		Role:       api.RolePrimary,
		Epoch:      n.journal.epoch,
		Shards:     n.d.engine.Shards(),
		BarrierSeq: n.journal.NextBarrierSeq() - 1,
	}
	for i, l := range n.journal.logs {
		tail := l.Tail()
		st.Cursors = append(st.Cursors, api.ReplCursor{
			Shard: i, Seg: tail.Seg, Off: tail.Off, Records: l.AppendedRecords(),
		})
	}
	return st
}

func (n *replNode) isPromoted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.journal != nil
}

// promote flips the node into a primary. Idempotent: a second call
// (operator race, death watch firing behind a manual promote) returns
// the promoted status without re-running the flip.
func (n *replNode) promote(why string) (api.ReplStatusResponse, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal != nil {
		return n.statusLocked(), nil
	}
	warnf("repl: promoting to primary: %s", why)

	// Stop replication; the engine is left at the last complete
	// barrier plus fully-applied batches, never a half-applied window.
	seq := n.follower.Promote()
	w := &shardWALs{seq: seq, epoch: n.follower.Epoch() + 1}
	if dir := n.d.o.walDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return api.ReplStatusResponse{}, err
		}
		// Never reuse an epoch a stale local manifest already names —
		// a follower re-pointed here before promotion may have left one.
		if m, ok, err := readManifest(dir); err == nil && ok && m.Epoch >= w.epoch {
			w.epoch = m.Epoch + 1
		}
		committed, err := migrateToEpoch(dir, w.epoch, n.d.engine.Shards(), n.d.engine, seq, n.d.walOptions)
		if err != nil {
			return api.ReplStatusResponse{}, fmt.Errorf("commit promoted epoch %d: %w", w.epoch, err)
		}
		w = committed
	}
	j, err := n.d.newJournal(w)
	if err != nil {
		return api.ReplStatusResponse{}, err
	}
	if j.logs != nil {
		n.primMux = http.NewServeMux()
		n.d.replRoutes(j)(n.primMux)
	}
	// Flip the serving layer: install the journal first so the very
	// next request admitted past the cleared gate writes through it.
	n.d.srv.SetJournal(j)
	n.d.srv.SetReplica(nil)
	n.journal = j
	warnf("repl: promoted to primary (epoch %d, next barrier %d)", j.epoch, seq)
	return n.statusLocked(), nil
}

// deathWatch promotes the node once the primary has been silent past
// `after`. It only fires on a bootstrapped follower — promoting a
// replica that never reached its primary would crown an empty store.
func (n *replNode) deathWatch(done <-chan struct{}, after time.Duration) {
	tick := after / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if n.isPromoted() {
				return
			}
			lc := n.follower.LastContact()
			if lc.IsZero() || time.Since(lc) < after {
				continue
			}
			if _, err := n.promote(fmt.Sprintf("primary silent %s, past -promote-after %s",
				time.Since(lc).Round(time.Millisecond), after)); err != nil {
				warnf("repl: auto-promotion failed: %v", err)
			}
			return
		}
	}
}

// close stops replication and, on a promoted node, shuts the promoted
// journal down gracefully.
func (n *replNode) close() error {
	n.follower.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal == nil {
		return nil
	}
	return n.journal.close()
}

// promoteRemote is the `ratingd -promote <url>` one-shot: ask the
// daemon at base to promote, print the resulting role, exit.
func promoteRemote(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/v1/repl/promote", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("promote %s: status %d: %s", base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st api.ReplStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("promote %s: decode response: %w", base, err)
	}
	fmt.Printf("promoted: role=%s epoch=%d shards=%d barrier=%d\n",
		st.Role, st.Epoch, st.Shards, st.BarrierSeq)
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
