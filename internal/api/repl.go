package api

// Replication wire contract (v1).
//
// A follower bootstraps with GET /v1/repl/snapshot, then tails each
// shard log with GET /v1/repl/stream?shard=&epoch=&seg=&off= — a
// long-poll NDJSON stream of ReplFrame lines. Every frame carries the
// cursor (seg, off) just PAST itself, so the client resumes exactly
// where it stopped by echoing the last frame's cursor; a stream may
// end at any time (long-poll window, primary restart, network) and
// the cursor is the only state that matters. Frames also carry the
// primary's cumulative appended-record count (total) and wall clock
// (ts), which the follower turns into lag in records and seconds.

// Replication frame types.
const (
	// FrameRecords: Records holds a batch of ratings to apply.
	FrameRecords = "records"
	// FrameBarrier: a maintenance window broadcast at barrier sequence
	// Seq; the follower aligns all shard streams at Seq, then runs the
	// window [Start, End).
	FrameBarrier = "barrier"
	// FrameSegment: the cursor rolled into a new segment; no payload.
	FrameSegment = "segment"
	// FrameHeartbeat: nothing new; refreshes total/ts so an idle
	// follower's lag stays measured.
	FrameHeartbeat = "heartbeat"
	// FrameReset: the cursor's segment is gone (compacted past);
	// the follower must re-bootstrap from a fresh snapshot.
	FrameReset = "reset"
)

// ReplFrame is one NDJSON line of the replication stream.
type ReplFrame struct {
	Type  string `json:"type"`
	Shard int    `json:"shard"`
	// Seg/Off is the cursor just past this frame: echo it to resume.
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
	// Total is the primary's cumulative appended-record count for this
	// shard log; comparable only within one primary process lifetime.
	Total uint64 `json:"total"`
	// TS is the primary's wall clock, unix seconds (fractional).
	TS      float64         `json:"ts"`
	Records []RatingPayload `json:"records,omitempty"`
	// Seq/Start/End describe barrier frames.
	Seq   uint64  `json:"seq,omitempty"`
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
}

// ReplCursor is one shard log's replication position.
type ReplCursor struct {
	Shard int   `json:"shard"`
	Seg   int   `json:"seg"`
	Off   int64 `json:"off"`
	// Records is cumulative appended (primary) or applied-since-
	// bootstrap-base (follower) records for this shard.
	Records uint64 `json:"records"`
}

// Replication roles.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ReplStatusResponse is GET /v1/repl/status on either role.
type ReplStatusResponse struct {
	Role   string `json:"role"`
	Epoch  int    `json:"epoch"`
	Shards int    `json:"shards"`
	// BarrierSeq is the last maintenance barrier applied (0 = none).
	BarrierSeq uint64 `json:"barrier_seq"`
	// Primary is the upstream URL (followers only).
	Primary string `json:"primary,omitempty"`
	// LagRecords/LagSeconds measure follower staleness; 0 on the
	// primary. LagSeconds is wall-clock age of the reflected state.
	LagRecords uint64  `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	// Resyncs counts torn-frame/decode resyncs; Reconnects counts
	// stream connections established after the first.
	Resyncs    uint64       `json:"resyncs"`
	Reconnects uint64       `json:"reconnects"`
	Cursors    []ReplCursor `json:"cursors,omitempty"`
}

// ReplShardSnapshot is one shard log's verified snapshot in a
// bootstrap response. Data is the raw snapshot file — trailing CRC32C
// footer included — so the follower verifies the bytes end-to-end
// (wal.SplitSnapshotFooter) before trusting them.
type ReplShardSnapshot struct {
	Shard int `json:"shard"`
	// Seg is the segment the snapshot covers up to: tailing resumes at
	// cursor (Seg, 0).
	Seg int `json:"seg"`
	// Base is the primary's appended-record count at snapshot time —
	// the baseline follower lag is measured from (also bound into
	// Data's footer).
	Base uint64 `json:"base"`
	Data []byte `json:"data"` // base64 on the wire
}

// ReplBootstrapResponse is GET /v1/repl/snapshot: a fresh, verified
// snapshot of every shard log plus the barrier height it reflects.
type ReplBootstrapResponse struct {
	Epoch      int    `json:"epoch"`
	Shards     int    `json:"shards"`
	BarrierSeq uint64 `json:"barrier_seq"`
	// TS is the primary's wall clock when the snapshot was cut.
	TS        float64             `json:"ts"`
	Snapshots []ReplShardSnapshot `json:"snapshots"`
}
