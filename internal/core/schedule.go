package core

import (
	"fmt"
)

// Scheduler drives a System's maintenance on a fixed cadence without
// the caller tracking window boundaries — the online shape of the §IV
// "process once per month" loop. Feed it the current (simulation or
// wall-clock-derived) time via AdvanceTo and it runs every complete
// window that has elapsed.
//
// The scheduler is as (un)safe for concurrent use as the system it
// wraps: serialize access externally if needed.
type Scheduler struct {
	sys *System
	// width is the maintenance window length in days.
	width float64
	// next is the start of the next unprocessed window.
	next float64
}

// NewScheduler wraps sys with a maintenance cadence of width days
// starting at start.
func NewScheduler(sys *System, start, width float64) (*Scheduler, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: scheduler needs a system")
	}
	if width <= 0 {
		return nil, fmt.Errorf("core: scheduler width %g", width)
	}
	return &Scheduler{sys: sys, width: width, next: start}, nil
}

// Pending returns the start of the next unprocessed window.
func (s *Scheduler) Pending() float64 { return s.next }

// AdvanceTo processes every maintenance window that ends at or before
// now, in order, and returns their reports. A now before the next
// window boundary is a no-op. Processing stops at the first error; the
// windows already processed stay processed (their reports are returned
// alongside the error).
func (s *Scheduler) AdvanceTo(now float64) ([]ProcessReport, error) {
	var reports []ProcessReport
	for s.next+s.width <= now {
		rep, err := s.sys.ProcessWindow(s.next, s.next+s.width)
		if err != nil {
			return reports, fmt.Errorf("core: scheduler window [%g,%g): %w", s.next, s.next+s.width, err)
		}
		s.next += s.width
		reports = append(reports, rep)
	}
	return reports, nil
}
