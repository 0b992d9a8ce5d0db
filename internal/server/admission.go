package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// AdmissionConfig bounds the mutating routes' concurrency so overload
// degrades into prompt, typed 429s instead of a collapse of timed-out
// requests. The limiter is a semaphore plus a bounded wait queue:
//
//   - up to MaxConcurrent mutations execute simultaneously;
//   - up to MaxQueue more wait for a slot, but never longer than
//     MaxWait and never past the request's own deadline (a request
//     that cannot start in time is shed immediately — queueing work
//     that is doomed to miss its deadline only steals capacity from
//     requests that could still make theirs);
//   - everything else is shed on arrival with 429, a Retry-After
//     header, and an api.Error envelope carrying the same hint.
type AdmissionConfig struct {
	// MaxConcurrent is the number of mutating requests allowed to
	// execute at once. Zero disables admission control.
	MaxConcurrent int
	// MaxQueue is how many requests may wait for a slot beyond
	// MaxConcurrent. Zero means no queue: a busy server sheds
	// immediately.
	MaxQueue int
	// MaxWait bounds the time a queued request waits for a slot
	// before being shed. Zero means 250ms.
	MaxWait time.Duration
	// RetryAfter is the backoff hint attached to shed responses.
	// Zero derives it from MaxWait.
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxWait == 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2 * c.MaxWait
	}
	return c
}

// admission is the runtime limiter. tokens is a buffered channel used
// as a semaphore; queue is a second semaphore bounding how many
// requests may block on tokens.
type admission struct {
	cfg    AdmissionConfig
	tokens chan struct{}
	queue  chan struct{}
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	a := &admission{
		cfg:    cfg,
		tokens: make(chan struct{}, cfg.MaxConcurrent),
		queue:  make(chan struct{}, cfg.MaxQueue),
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// admissionResult classifies one admission attempt for telemetry.
type admissionResult string

const (
	admitted      admissionResult = "admitted"
	shedQueueFull admissionResult = "queue_full"
	shedTimeout   admissionResult = "wait_timeout"
	shedDeadline  admissionResult = "deadline"
)

// acquire blocks until the request may execute or must be shed.
// release must be called exactly once when acquire admitted.
func (a *admission) acquire(r *http.Request) (admissionResult, time.Duration) {
	// Fast path: a free slot, no queueing.
	select {
	case <-a.tokens:
		return admitted, 0
	default:
	}

	// The wait budget is the configured bound, clipped to the time the
	// request has left. A request whose deadline is nearer than any
	// useful wait is shed now rather than queued to die.
	wait := a.cfg.MaxWait
	deadlineBound := false
	if dl, ok := r.Context().Deadline(); ok {
		left := time.Until(dl)
		if left < wait {
			wait, deadlineBound = left, true
		}
		if wait <= 0 {
			return shedDeadline, 0
		}
	}

	// Claim a queue slot; a full queue sheds immediately.
	select {
	case a.queue <- struct{}{}:
	default:
		return shedQueueFull, 0
	}
	defer func() { <-a.queue }()

	began := time.Now()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-a.tokens:
		return admitted, time.Since(began)
	case <-r.Context().Done():
		return shedDeadline, time.Since(began)
	case <-timer.C:
		if deadlineBound {
			return shedDeadline, time.Since(began)
		}
		return shedTimeout, time.Since(began)
	}
}

func (a *admission) release() { a.tokens <- struct{}{} }

// QueueDepth reports how many requests are waiting for a slot.
func (a *admission) queueDepth() int {
	if a == nil {
		return 0
	}
	return len(a.queue)
}

// inflight reports how many admitted mutations are executing.
func (a *admission) inflightCount() int {
	if a == nil {
		return 0
	}
	return cap(a.tokens) - len(a.tokens)
}

// admit wraps a mutating handler with admission control. Without a
// limiter it returns the handler untouched.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	a := s.admission
	if a == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		result, waited := a.acquire(r)
		s.metrics.admission(string(result), waited)
		if result != admitted {
			retry := a.cfg.RetryAfter
			// Retry-After is whole seconds by spec; round up so the
			// header never promises an earlier retry than the envelope.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			api.WriteJSON(w, r, http.StatusTooManyRequests,
				api.NewError(api.CodeOverloaded,
					"overloaded: mutation shed (%s)", result).
					WithRetryAfter(retry.Seconds()))
			return
		}
		defer a.release()
		h(w, r)
	}
}
