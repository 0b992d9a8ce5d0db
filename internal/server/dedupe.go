package server

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sync"
)

// dedupeCache makes mutating endpoints idempotent: a request carrying
// an X-Request-ID header executes at most once, and retries of the
// same ID replay the recorded response instead of re-applying the
// mutation. This is what lets the retrying client re-send a rating
// batch after a lost response without double-counting it.
//
// Responses with 5xx status are deliberately not cached: they mean the
// attempt failed (e.g. the journal was unavailable), so the retry must
// re-execute, not replay the failure.
type dedupeCache struct {
	mu      sync.Mutex
	entries map[string]*dedupeEntry
	order   []string // entries' keys, oldest first: FIFO eviction
	cap     int
}

type dedupeEntry struct {
	done        chan struct{} // closed when the first execution finishes
	status      int
	contentType string
	body        []byte
}

func newDedupeCache(capacity int) *dedupeCache {
	return &dedupeCache{entries: make(map[string]*dedupeEntry), cap: capacity}
}

// begin registers id. The first caller becomes the leader (executes
// the request); later callers get the same entry to wait on.
func (c *dedupeCache) begin(id string) (e *dedupeEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e, false
	}
	e = &dedupeEntry{done: make(chan struct{})}
	c.entries[id] = e
	c.order = append(c.order, id)
	for len(c.order) > c.cap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	return e, true
}

// finish records the leader's response and wakes waiters. Failed
// attempts (5xx) are forgotten so a retry re-executes.
func (c *dedupeCache) finish(id string, e *dedupeEntry, status int, contentType string, body []byte) {
	c.mu.Lock()
	e.status = status
	e.contentType = contentType
	e.body = body
	if status >= 500 {
		c.forget(id, e)
	}
	c.mu.Unlock()
	close(e.done)
}

// abort forgets id after a leader panic; waiters see a zero status.
func (c *dedupeCache) abort(id string, e *dedupeEntry) {
	c.mu.Lock()
	c.forget(id, e)
	c.mu.Unlock()
	close(e.done)
}

// forget removes e and gives its eviction slot back, so the slot can
// never evict a later entry for the same id. An e already evicted is
// left alone: the map may hold a retry's entry under id by now. The
// caller holds c.mu.
func (c *dedupeCache) forget(id string, e *dedupeEntry) {
	if c.entries[id] != e {
		return
	}
	delete(c.entries, id)
	if i := slices.Index(c.order, id); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// responseRecorder buffers a handler's response so it can be both sent
// and cached.
type responseRecorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header)}
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}

// idempotent wraps a mutating handler with request-ID deduplication.
// Requests without an X-Request-ID pass straight through.
func (s *Server) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || s.dedupe == nil {
			h(w, r)
			return
		}
		w.Header().Set("X-Request-ID", id)
		e, leader := s.dedupe.begin(id)
		if leader {
			s.metrics.dedupeMiss()
		} else {
			s.metrics.dedupeHit()
		}
		if !leader {
			select {
			case <-e.done:
			case <-r.Context().Done():
				writeError(w, r, http.StatusServiceUnavailable,
					fmt.Errorf("duplicate of in-flight request %s: %w", id, r.Context().Err()))
				return
			}
			if e.status == 0 { // leader aborted
				writeError(w, r, http.StatusServiceUnavailable,
					fmt.Errorf("original request %s aborted; retry", id))
				return
			}
			w.Header().Set("X-Request-Replayed", "true")
			if e.contentType != "" {
				w.Header().Set("Content-Type", e.contentType)
			}
			w.WriteHeader(e.status)
			_, _ = w.Write(e.body)
			return
		}

		rec := newResponseRecorder()
		finished := false
		defer func() {
			if !finished {
				s.dedupe.abort(id, e)
			}
		}()
		h(rec, r)
		finished = true
		body := append([]byte(nil), rec.buf.Bytes()...)
		s.dedupe.finish(id, e, rec.status, rec.header.Get("Content-Type"), body)

		if ct := rec.header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(rec.status)
		_, _ = w.Write(body)
	}
}
