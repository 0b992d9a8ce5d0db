// Package repl replicates a primary ratingd's write-ahead log to
// followers over the v1 wire contract.
//
// The primary ships the WAL as-is: followers read the same CRC32C
// frames recovery does, via long-poll NDJSON streams resumable at any
// (segment, offset) cursor (see api.ReplFrame for the frame
// vocabulary). A follower bootstraps from the primary's latest
// checksummed snapshot, then tails each shard log and applies records
// through the same shard.Recover/apply path local recovery uses — so
// its in-memory state is byte-identical to the primary's at every
// barrier. Promotion truncates to the last complete barrier and
// commits that state as a new WAL epoch (internal/journal.Promote);
// cmd/ratingd then serves it as it serves any primary.
package repl

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/wal"
)

// Journal is the primary-side surface repl needs from the daemon's WAL
// journal (internal/journal): the logs it serves, a way to cut a fresh
// verified snapshot (bootstrap) and the barrier height it reflects.
type Journal interface {
	// Epoch is the manifest epoch being served; a follower cursor from
	// another epoch is refused (409) so it re-bootstraps.
	Epoch() int
	// Logs are the per-shard WALs, indexed by shard.
	Logs() []*wal.Log
	// Snapshot rebases every shard log on the current state.
	Snapshot() error
	// NextBarrierSeq returns the sequence the next maintenance barrier
	// will carry; the last applied barrier is NextBarrierSeq()-1.
	NextBarrierSeq() uint64
}

// PrimaryConfig configures a replication primary.
type PrimaryConfig struct {
	// Journal holds the served logs, cuts bootstrap snapshots and
	// reports barrier height.
	Journal Journal
	Metrics *Metrics
	// LongPoll bounds one stream response (default 20s); Poll is the
	// idle re-read interval (default 20ms); Heartbeat the idle frame
	// interval (default 3s).
	LongPoll  time.Duration
	Poll      time.Duration
	Heartbeat time.Duration
	// Now is a test seam; nil means time.Now.
	Now func() time.Time
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.LongPoll == 0 {
		c.LongPoll = 20 * time.Second
	}
	if c.Poll == 0 {
		c.Poll = 20 * time.Millisecond
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 3 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Metrics = c.Metrics.orNoop()
	return c
}

// maxFrameRecords caps the WAL records one stream frame carries.
const maxFrameRecords = 512

// Primary serves the replication endpoints over the daemon's WAL.
type Primary struct {
	cfg PrimaryConfig
}

// NewPrimary returns a Primary serving cfg.Journal's logs.
func NewPrimary(cfg PrimaryConfig) *Primary {
	return &Primary{cfg: cfg.withDefaults()}
}

// Routes mounts the replication endpoints on mux.
func (p *Primary) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/stream", p.handleStream)
	mux.HandleFunc("GET /v1/repl/snapshot", p.handleSnapshot)
	mux.HandleFunc("GET /v1/repl/status", p.handleStatus)
}

// handleStatus serves the primary's Status.
func (p *Primary) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, r, http.StatusOK, Status(p.cfg.Journal))
}

// Status is a primary's replication status over j: its epoch, barrier
// height and per-shard tail cursors.
func Status(j Journal) api.ReplStatusResponse {
	logs := j.Logs()
	st := api.ReplStatusResponse{
		Role:       api.RolePrimary,
		Epoch:      j.Epoch(),
		Shards:     len(logs),
		BarrierSeq: j.NextBarrierSeq() - 1,
	}
	for i, l := range logs {
		tail := l.Tail()
		st.Cursors = append(st.Cursors, api.ReplCursor{
			Shard: i, Seg: tail.Seg, Off: tail.Off, Records: l.AppendedRecords(),
		})
	}
	return st
}

// handleSnapshot cuts a fresh snapshot of every shard log and serves
// the raw (footer-verified) snapshot files. Cutting fresh — rather
// than serving whatever snapshot exists — is what makes the lag
// baseline sound: every record past the returned cursors was appended
// by this process and is counted by AppendedRecords.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := p.cfg.Journal.Snapshot(); err != nil {
		api.WriteJSON(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable,
			"snapshot for bootstrap: %v", err))
		return
	}
	logs := p.cfg.Journal.Logs()
	resp := api.ReplBootstrapResponse{
		Epoch:      p.cfg.Journal.Epoch(),
		Shards:     len(logs),
		BarrierSeq: p.cfg.Journal.NextBarrierSeq() - 1,
		TS:         float64(p.cfg.Now().UnixNano()) / 1e9,
	}
	for i, l := range logs {
		data, cur, ft, err := l.LatestSnapshot()
		if err != nil {
			api.WriteJSON(w, r, http.StatusServiceUnavailable, api.NewError(api.CodeUnavailable,
				"shard %d snapshot: %v", i, err))
			return
		}
		resp.Snapshots = append(resp.Snapshots, api.ReplShardSnapshot{
			Shard: i, Seg: cur.Seg, Base: ft.Records, Data: data,
		})
	}
	p.cfg.Metrics.SnapshotsSent.Inc()
	api.WriteJSON(w, r, http.StatusOK, resp)
}

// handleStream long-polls one shard log from a cursor, writing NDJSON
// ReplFrames. The response ends at the long-poll window (or client
// disconnect); the follower reconnects with the last frame's cursor.
func (p *Primary) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	logs := p.cfg.Journal.Logs()
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= len(logs) {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"shard %q out of range [0,%d)", q.Get("shard"), len(logs)))
		return
	}
	epoch, err := strconv.Atoi(q.Get("epoch"))
	if err != nil || epoch != p.cfg.Journal.Epoch() {
		api.WriteJSON(w, r, http.StatusConflict, api.NewError(api.CodeConflict,
			"epoch %q != primary epoch %d; re-bootstrap", q.Get("epoch"), p.cfg.Journal.Epoch()))
		return
	}
	seg, serr := strconv.Atoi(q.Get("seg"))
	off, oerr := strconv.ParseInt(q.Get("off"), 10, 64)
	if serr != nil || oerr != nil || seg < 0 || off < 0 {
		api.WriteJSON(w, r, http.StatusBadRequest, api.NewError(api.CodeBadRequest,
			"bad cursor seg=%q off=%q", q.Get("seg"), q.Get("off")))
		return
	}
	p.cfg.Metrics.Streams.Inc()

	log := logs[shard]
	cur := wal.Cursor{Seg: seg, Off: off}
	w.Header().Set(api.VersionHeader, api.Version)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := newFrameWriter(w, flusher)

	ctx := r.Context()
	deadline := p.cfg.Now().Add(p.cfg.LongPoll)
	lastSent := p.cfg.Now()
	for {
		recs, next, rerr := log.ReadFrom(cur, maxFrameRecords)
		frame := api.ReplFrame{
			Shard: shard, Seg: next.Seg, Off: next.Off,
			Total: log.AppendedRecords(),
			TS:    float64(p.cfg.Now().UnixNano()) / 1e9,
		}
		switch {
		case rerr != nil:
			// ErrSegmentGone tells the follower to re-bootstrap; any
			// other error just ends the stream (the follower retries
			// from its cursor).
			if isSegmentGone(rerr) {
				frame.Type = api.FrameReset
				_ = enc.write(frame)
			}
			return
		case len(recs) > 0 && recs[0].Type == wal.TypeBarrier:
			frame.Type = api.FrameBarrier
			frame.Seq, frame.Start, frame.End = recs[0].Seq, recs[0].Start, recs[0].End
		case len(recs) > 0:
			frame.Type = api.FrameRecords
			frame.Records = make([]api.RatingPayload, len(recs))
			for i, rec := range recs {
				frame.Records[i] = api.RatingPayload{
					Rater:  int(rec.Rating.Rater),
					Object: int(rec.Rating.Object),
					Value:  rec.Rating.Value,
					Time:   rec.Rating.Time,
				}
			}
			p.cfg.Metrics.StreamRecords.Add(uint64(len(recs)))
		case next != cur:
			frame.Type = api.FrameSegment
		}
		if frame.Type != "" {
			if enc.write(frame) != nil {
				return
			}
			cur = next
			lastSent = p.cfg.Now()
			if ctx.Err() != nil {
				return
			}
			continue
		}
		// Idle: nothing past the cursor.
		now := p.cfg.Now()
		if now.After(deadline) {
			return
		}
		if now.Sub(lastSent) >= p.cfg.Heartbeat {
			frame.Type = api.FrameHeartbeat
			if enc.write(frame) != nil {
				return
			}
			lastSent = now
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(p.cfg.Poll):
		}
	}
}
