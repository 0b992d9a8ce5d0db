package detector

import (
	"errors"
	"fmt"

	"repro/internal/rating"
)

// ErrOutOfOrder is returned when a streamed rating arrives with a time
// before the previous one.
var ErrOutOfOrder = errors.New("detector: rating out of time order")

// Stream is the online form of Procedure 1: ratings for one object are
// pushed as they arrive and window reports are emitted the moment each
// count window completes, with the same suspicion bookkeeping as the
// batch Detect. Memory stays bounded: ratings older than the next
// window start are discarded.
//
// Only count-based windowing is supported (a live system knows "every
// 50 ratings" immediately, whereas a time window can only close when a
// later rating — or an external clock — proves it is over; callers with
// a clock can run batch Detect per maintenance interval instead, as
// core.System does).
type Stream struct {
	// OnAccrue, when non-nil, is invoked for every positive suspicion
	// increment with the rater, the delta just added to its Suspicion,
	// and the time of the rating that completed the window. It fires
	// inside Push, so it must not call back into the Stream.
	OnAccrue func(id rating.RaterID, delta, at float64)

	cfg Config
	// ws is the scoring scratch and Procedure 1's L_latest map, its marks
	// running parallel to buf. A Stream is single-goroutine by contract,
	// so it owns one workspace for life.
	ws Workspace

	buf []rating.Rating
	// emitted counts windows already reported.
	emitted int
	// consumed is the absolute index (over all pushed ratings) of
	// buf[0].
	consumed int
	total    int
	lastTime float64

	perRater map[rating.RaterID]RaterStats
}

// NewStream builds a streaming detector. cfg.Mode must be
// WindowByCount (or zero, which defaults to it).
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Mode != WindowByCount {
		return nil, fmt.Errorf("detector: stream supports count windows only")
	}
	return &Stream{
		cfg:      cfg,
		ws:       Workspace{latest: make(map[rating.RaterID]float64)},
		perRater: make(map[rating.RaterID]RaterStats),
	}, nil
}

// Push appends one rating and returns the window reports completed by
// it (zero or one for step >= 1; exactly one at each step boundary once
// the first window has filled). Ratings must arrive in non-decreasing
// time order.
func (s *Stream) Push(r rating.Rating) ([]WindowReport, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	if s.total > 0 && r.Time < s.lastTime {
		return nil, fmt.Errorf("detector: %g after %g: %w", r.Time, s.lastTime, ErrOutOfOrder)
	}
	s.lastTime = r.Time
	s.buf = append(s.buf, r)
	s.ws.marked = append(s.ws.marked, false)
	s.total++
	// With Step > Size, ratings can land in the gap between windows;
	// they are dead on arrival and trimmed immediately so the buffer
	// stays bounded by Size+Step regardless of geometry.
	s.compact()

	stats := s.perRater[r.Rater]
	stats.TotalRatings++
	s.perRater[r.Rater] = stats

	var out []WindowReport
	for {
		start := s.emitted * s.cfg.Step // absolute index of next window
		if start+s.cfg.Size > s.total {
			break
		}
		rel := start - s.consumed
		member := s.buf[rel : rel+s.cfg.Size]
		wr, err := s.ws.score(rating.Window{
			Index: s.emitted, Start: member[0].Time, End: member[len(member)-1].Time,
			Lo: start, Hi: start + s.cfg.Size, Ratings: member,
		}, s.cfg)
		if err != nil {
			return nil, err
		}
		if wr.Suspicious {
			s.ws.accrue(s.perRater, member, s.ws.marked[rel:rel+s.cfg.Size], wr.Level, s.OnAccrue, s.lastTime)
		}
		out = append(out, wr)
		s.emitted++
		s.compact()
	}
	return out, nil
}

// compact drops buffered ratings that can no longer appear in a window.
// When Step > Size the next window start can exceed what has been
// pushed so far (a gap); only what is actually buffered is droppable
// now, and arrivals landing in the gap are trimmed by the next call.
func (s *Stream) compact() {
	nextStart := s.emitted * s.cfg.Step
	drop := nextStart - s.consumed
	if drop > len(s.buf) {
		drop = len(s.buf)
	}
	if drop <= 0 {
		return
	}
	s.buf = append(s.buf[:0], s.buf[drop:]...)
	s.ws.marked = append(s.ws.marked[:0], s.ws.marked[drop:]...)
	s.consumed += drop
}

// PerRater returns a copy of the accumulated per-rater statistics —
// the same quantities batch Detect reports.
func (s *Stream) PerRater() map[rating.RaterID]RaterStats {
	out := make(map[rating.RaterID]RaterStats, len(s.perRater))
	for id, st := range s.perRater {
		out[id] = st
	}
	return out
}

// Windows returns how many windows have been emitted.
func (s *Stream) Windows() int { return s.emitted }

// Buffered returns how many ratings are currently held.
func (s *Stream) Buffered() int { return len(s.buf) }
