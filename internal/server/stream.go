package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/rating"
)

// maxStreamLineBytes bounds one NDJSON line. The stream body as a
// whole is unbounded (that is the point of bulk ingest); the per-line
// cap is what keeps a hostile stream from ballooning the read buffer.
const maxStreamLineBytes = 1 << 20

// maxStreamPending bounds how many group-commit batches may be in
// flight behind the decoder on the async (Router) path: enough to
// overlap decode with WAL fsync + apply, small enough that a submit
// failure is noticed within two batches.
const maxStreamPending = 2

// streamState is the pooled per-request scratch of the stream
// endpoint: the read buffer, the coalesced batch, and the per-batch
// object set for cache invalidation. Steady state, an accepted line
// costs zero heap allocations — the buffers below are reused across
// requests and the fast-path line parser (parseRatingLine) allocates
// nothing.
type streamState struct {
	buf   []byte          // read buffer; r, w index the unconsumed window
	batch []rating.Rating // current group-commit batch
	objs  []rating.ObjectID
}

var streamPool = sync.Pool{
	New: func() any {
		return &streamState{
			buf:   make([]byte, 64<<10),
			batch: make([]rating.Rating, 0, 1024),
			objs:  make([]rating.ObjectID, 0, 64),
		}
	},
}

// pendingBatch is one async-submitted batch awaiting its group
// commit: the wait handle, the admission token to return once it
// settles, and the objects to invalidate when it does.
type pendingBatch struct {
	wait    func() error
	release func() // admission-token return; nil without a limiter
	objs    []rating.ObjectID
	count   int
}

// lineReader yields newline-delimited lines from an io.Reader through
// one reusable buffer, growing it only up to the per-line cap.
type lineReader struct {
	src io.Reader
	buf []byte
	r   int // next unread byte
	w   int // end of buffered data
	eof bool
}

var errLineTooLong = errors.New("line exceeds 1 MiB limit")

// next returns the next line (without the trailing newline). A final
// unterminated line is returned before io.EOF. The returned slice
// aliases the internal buffer and is valid until the next call.
func (l *lineReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.r:l.w], '\n'); i >= 0 {
			line := l.buf[l.r : l.r+i]
			l.r += i + 1
			return line, nil
		}
		if l.eof {
			if l.r == l.w {
				return nil, io.EOF
			}
			line := l.buf[l.r:l.w]
			l.r = l.w
			return line, nil
		}
		// Compact, then grow if the partial line fills the buffer.
		if l.r > 0 {
			copy(l.buf, l.buf[l.r:l.w])
			l.w -= l.r
			l.r = 0
		}
		if l.w == len(l.buf) {
			if len(l.buf) >= maxStreamLineBytes {
				return nil, errLineTooLong
			}
			grown := make([]byte, min(len(l.buf)*2, maxStreamLineBytes))
			copy(grown, l.buf[:l.w])
			l.buf = grown
		}
		n, err := l.src.Read(l.buf[l.w:])
		l.w += n
		if err == io.EOF {
			l.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

// idleDeadlineReader arms a rolling read/write deadline on the
// underlying connection before each body read. The stream route is
// exempt from the whole-request timeout — a bulk ingest legitimately
// runs for minutes — so its bound is per unit of progress instead:
// every read must complete within idle, and the response (per-line
// rejections, the summary) stays writable on the same cadence. The
// deadlines override the http.Server's connection-wide
// ReadTimeout/WriteTimeout; set errors are ignored so transports
// without deadline support (test recorders) degrade to unbounded
// reads.
type idleDeadlineReader struct {
	src  io.Reader
	rc   *http.ResponseController
	idle time.Duration
}

func (d *idleDeadlineReader) Read(p []byte) (int, error) {
	dl := time.Now().Add(d.idle)
	_ = d.rc.SetReadDeadline(dl)
	_ = d.rc.SetWriteDeadline(dl)
	return d.src.Read(p)
}

// handleSubmitStream is POST /v1/ratings:stream: one rating per NDJSON
// line in, a streamed NDJSON result out. Valid lines coalesce into
// group-commit batches fed to the Journal (per-batch WAL AppendAll on
// the durable path); invalid lines are rejected individually with an
// api.StreamLineError, and the response always ends with one
// api.StreamSummary line. The endpoint deliberately skips the
// idempotency cache — a bulk stream is not replayable from a buffered
// response — so clients must not blindly re-send a whole stream after
// a cut; the summary's Lines field tells them where to resume.
//
// Admission control is per flushed batch, not per request: a stream
// holds a token only while one of its batches is actually submitting
// (or, on the async path, awaiting its group commit), so a
// long-running ingest does not pin mutation capacity away from unary
// traffic between batches. A shed batch ends the stream with an
// overloaded summary carrying the retry hint.
func (s *Server) handleSubmitStream(w http.ResponseWriter, r *http.Request) {
	st := streamPool.Get().(*streamState)
	defer func() {
		st.batch = st.batch[:0]
		st.objs = st.objs[:0]
		streamPool.Put(st)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")

	journal := s.getJournal()
	async, _ := journal.(AsyncSubmitter)
	body := io.Reader(r.Body)
	if s.reqTimeout > 0 {
		body = &idleDeadlineReader{src: r.Body, rc: http.NewResponseController(w), idle: s.reqTimeout}
	} else {
		// Timeouts disabled: clear any server-wide connection deadlines
		// so a long ingest is not cut mid-body.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
	}
	lr := &lineReader{src: body, buf: st.buf}
	defer func() { st.buf = lr.buf }() // keep a grown buffer pooled

	adm := s.admission
	// Async pipelining depth: at most maxStreamPending batches in
	// flight, but never more than the limiter's whole capacity — each
	// in-flight batch holds one admission token and settling runs on
	// this goroutine, so holding every token while waiting for another
	// would deadlock the stream against itself.
	depth := maxStreamPending
	if adm != nil && adm.cfg.MaxConcurrent < depth {
		depth = adm.cfg.MaxConcurrent
	}

	var (
		lines, accepted, rejected int
		pending                   []pendingBatch
		terminal                  *api.Error // first fatal error; ends the stream
	)

	// settle waits out the oldest pending batch and folds its outcome.
	// The batch was already enqueued, so whatever wait reports, the
	// router may have flushed it — on a multi-shard journal even a
	// failed flush can have applied on some shards. Its objects are
	// therefore invalidated unconditionally; skipping that would leave
	// cached aggregates stale forever, breaking the readCache contract
	// that cached answers are bit-identical to the backend.
	settle := func() {
		p := pending[0]
		pending = pending[1:]
		err := p.wait()
		if p.release != nil {
			p.release()
		}
		s.cache.invalidateObjectList(p.objs)
		if err != nil {
			if terminal == nil {
				terminal = api.NewError(api.CodeUnavailable, "journal: %v", err)
			}
			return
		}
		accepted += p.count
	}

	// confirm settles the oldest pending batches until at most keep
	// remain. It keeps draining after a terminal error: enqueued
	// batches commit in the background whether or not the stream
	// survived, so their waits and cache invalidations must still run.
	confirm := func(keep int) {
		for len(pending) > keep {
			settle()
		}
	}

	flush := func() {
		if len(st.batch) == 0 || terminal != nil {
			return
		}
		if async != nil {
			// Make room in the pipeline (and, under a small limiter,
			// return a token) before admitting the next batch.
			confirm(depth - 1)
			if terminal != nil {
				return
			}
		}
		var release func()
		if adm != nil {
			result, waited := adm.acquire(r)
			s.metrics.admission(string(result), waited)
			if result != admitted {
				terminal = api.NewError(api.CodeOverloaded,
					"overloaded: stream batch shed (%s)", result).
					WithRetryAfter(adm.cfg.RetryAfter.Seconds())
				return
			}
			release = adm.release
		}
		s.metrics.streamBatch()
		if async != nil {
			wait, err := async.SubmitAsync(st.batch)
			if err != nil {
				if release != nil {
					release()
				}
				terminal = api.NewError(api.CodeUnavailable, "journal: %v", err)
				return
			}
			pending = append(pending, pendingBatch{
				wait:    wait,
				release: release,
				objs:    append([]rating.ObjectID(nil), st.objs...),
				count:   len(st.batch),
			})
			st.batch, st.objs = st.batch[:0], st.objs[:0]
			return
		}
		err := journal.SubmitAll(st.batch)
		if release != nil {
			release()
		}
		// Invalidate even on error: a failed multi-shard submit may
		// still have applied on some shards.
		s.cache.invalidateObjectList(st.objs)
		if err != nil {
			terminal = api.NewError(api.CodeUnavailable, "journal: %v", err)
			return
		}
		accepted += len(st.batch)
		st.batch, st.objs = st.batch[:0], st.objs[:0]
	}

	enc := json.NewEncoder(w)
	rejectLineCode := func(n int, code, msg string) {
		rejected++
		s.metrics.streamReject()
		_ = enc.Encode(api.StreamLineError{Line: n, Code: code, Message: msg})
	}
	rejectLine := func(n int, msg string) { rejectLineCode(n, api.CodeBadRequest, msg) }
	cview := s.getCluster()

	for terminal == nil {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			code := api.CodeBadRequest
			if !errors.Is(err, errLineTooLong) {
				code = api.CodeUnavailable // transport failure mid-stream
			}
			terminal = api.NewError(code, "read stream: %v", err)
			break
		}
		// Every physical line counts, blank or not: Lines maps 1:1 to
		// the client's input framing so resume-from-Lines is exact.
		lines++
		s.metrics.streamLine()
		// Tolerate CRLF framing and skip blank lines (trailing
		// newlines at end of a stream are not ratings).
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}

		p, ok := parseRatingLine(line)
		if !ok {
			// Slow path: the strict decoder agrees on what is valid and
			// produces the authoritative error message.
			if err := decodeStrict(line, &p); err != nil {
				rejectLine(lines, fmt.Sprintf("decode rating: %v", err))
				continue
			}
		}
		rt := p.Rating()
		if err := rt.Validate(); err != nil {
			rejectLine(lines, err.Error())
			continue
		}
		if cview != nil && !cview.OwnsObject(rt.Object) {
			// A stream is per-line, so a misrouted object rejects that
			// line (naming the owner) instead of cutting the stream.
			rejectLineCode(lines, api.CodeWrongNode,
				fmt.Sprintf("object %d is owned by %s", rt.Object, cview.OwnerURL(rt.Object)))
			continue
		}
		st.batch = append(st.batch, rt)
		st.objs = appendObject(st.objs, rt.Object)
		if len(st.batch) >= s.streamBatch {
			flush()
		}
	}
	flush()
	// Drain every pending batch on every exit path — terminal error
	// included — so no enqueued batch escapes its wait and cache
	// invalidation.
	confirm(0)

	summary := api.StreamSummary{Accepted: accepted, Rejected: rejected, Lines: lines}
	if terminal != nil {
		summary.Code, summary.Message = terminal.Code, terminal.Message
		summary.RetryAfter = terminal.RetryAfter
	}
	_ = enc.Encode(summary)
}

// appendObject adds obj to the batch's object set. The set is a small
// slice scanned linearly: batches hold at most a few hundred ratings
// over (typically) far fewer distinct objects, and a slice keeps the
// steady-state path allocation-free where a map would not.
func appendObject(objs []rating.ObjectID, obj rating.ObjectID) []rating.ObjectID {
	for _, o := range objs {
		if o == obj {
			return objs
		}
	}
	return append(objs, obj)
}

// invalidateObjectList is invalidateRatings over a pre-deduplicated
// object list.
func (c *readCache) invalidateObjectList(objs []rating.ObjectID) {
	if c == nil || len(objs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, obj := range objs {
		c.bumpLocked(obj)
	}
}

// decodeStrict is the unary endpoint's decoding contract applied to
// one line: unknown fields are errors, trailing garbage is an error.
func decodeStrict(line []byte, p *api.RatingPayload) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return err
	}
	// A second token means trailing content after the object.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after rating object")
	}
	return nil
}
