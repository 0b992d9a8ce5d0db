package main

// Replication role wiring. A -follow daemon starts as a
// bounded-staleness read replica of its primary and can become a
// primary once, without restarting: on demand (POST /v1/repl/promote,
// or the `ratingd -promote <url>` one-shot) or automatically when the
// primary has been silent past -promote-after. Promotion truncates to
// the follower's last complete barrier (the follower drops pending
// barriers rather than half-applying them), commits that state as a
// fresh WAL epoch through the same manifest machinery shard-count
// migrations use, and then serves it as any primary is served
// (daemon.servePrimary): the new primary serves bootstraps and streams
// to surviving followers, and snapshots and fsyncs on its flags.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/journal"
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
		m, ok, err := journal.ReadManifest(o.walDir)
		if err != nil {
			d.abort()
			return nil, err
		}
		if ok {
			warnf("wal: %s holds epoch %d (%d shards); it stays untouched while following %s and is superseded at promotion",
				o.walDir, m.Epoch, m.Shards, o.follow)
		}
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
		Warnf:      warnf,
	})}
	d.node = n
	srv, err := d.newServer(server.WithReplica(n.replicaInfo()))
	if err != nil {
		d.abort()
		return nil, err
	}
	h := telemetryMux(srv, d.reg, o.pprof, n.routes)
	d.served.Store(&h)
	// Run returns once close (or promotion) stops the follower.
	go func() { _ = n.follower.Run(context.Background()) }()
	if o.promoteAfter > 0 {
		d.goBackground(func() { n.deathWatch(d.bg, o.promoteAfter) })
	}
	fmt.Printf("following %s (max lag: %d records / %s)\n", o.follow, o.maxLagRecords, o.maxLag)
	return d, nil
}

// replNode owns a follower daemon's replication role and its /v1/repl
// routes. Promotion ends the role: the daemon then serves as a
// primary.
type replNode struct {
	d        *daemon
	follower *repl.Follower

	// mu serializes promotion with itself and with shutdown; on a
	// follower daemon it guards d.journal.
	mu sync.Mutex
}

// replicaInfo is the replica server's per-request staleness sample.
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
// mux: the follower's status, not_primary for stream and snapshot, and
// promotion.
func (n *replNode) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	mux.HandleFunc("GET /v1/repl/stream", n.handleReplicated)
	mux.HandleFunc("GET /v1/repl/snapshot", n.handleReplicated)
	n.promoteRoute(mux)
}

// promoteRoute mounts POST /v1/repl/promote. The promoted primary
// keeps it, so a repeated promotion answers with the primary's status.
func (n *replNode) promoteRoute(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/repl/promote", n.handlePromote)
}

func (n *replNode) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, r, http.StatusOK, n.follower.Status())
}

func (n *replNode) handleReplicated(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, r, http.StatusMisdirectedRequest, api.NewError(api.CodeNotPrimary,
		"this node is a follower; replicate from the primary").
		WithPrimary(n.d.o.follow))
}

func (n *replNode) handlePromote(w http.ResponseWriter, r *http.Request) {
	st, err := n.promote("requested via POST /v1/repl/promote")
	if err != nil {
		api.WriteJSON(w, r, http.StatusServiceUnavailable,
			api.NewError(api.CodeUnavailable, "%s", err.Error()))
		return
	}
	api.WriteJSON(w, r, http.StatusOK, st)
}

func (n *replNode) isPromoted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.d.journal != nil
}

// promote makes the node a primary: replication stops at the last
// complete barrier, that state is committed as a fresh WAL epoch, and
// servePrimary serves it as it serves a native primary, switched in
// with one store. Idempotent: a second call (operator race, death
// watch firing behind a manual promote) returns the promoted status
// without promoting again.
func (n *replNode) promote(why string) (api.ReplStatusResponse, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.d
	if d.journal == nil {
		warnf("repl: promoting to primary: %s", why)
		// Stop replication; the engine is left at the last complete
		// barrier plus fully-applied batches, never a half-applied
		// window.
		seq := n.follower.Promote()
		j, err := journal.Promote(d.engine, d.journalConfig(), n.follower.Epoch()+1, seq)
		if err != nil {
			return api.ReplStatusResponse{}, err
		}
		d.journal = j
		if err := d.servePrimary(n.promoteRoute); err != nil {
			// The follower's handler still serves, refusing writes; a
			// retry promotes into the next epoch.
			d.journal = nil
			j.Abort()
			return api.ReplStatusResponse{}, err
		}
		warnf("repl: promoted to primary (epoch %d, next barrier %d)", j.Epoch(), seq)
	}
	st := repl.Status(d.journal)
	st.Shards = d.engine.Shards() // without -wal there are no logs to count
	return st, nil
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
