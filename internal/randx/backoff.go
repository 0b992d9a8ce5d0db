package randx

import (
	"context"
	"time"
)

// Backoff is decorrelated jitter: each delay is uniform in
// [Min, 3×previous], capped at Max. Unlike truncated exponential
// backoff, consecutive draws share no fixed grid, so callers that
// failed together (a fleet of followers, clients retrying one server)
// spread out instead of re-colliding on the 2^n marks. Each draw comes
// from the caller's Rand, which the caller may use for other draws
// between them.
type Backoff struct {
	Min, Max time.Duration
	prev     time.Duration
}

// Next returns the next delay, drawn from r.
func (b *Backoff) Next(r *Rand) time.Duration {
	prev := b.prev
	if prev < b.Min {
		prev = b.Min
	}
	hi := b.Max
	if prev <= b.Max/3 { // above it, 3×prev would overflow
		hi = min(3*prev, b.Max)
	}
	d := b.Min
	if hi > d {
		d = time.Duration(r.Uniform(float64(d), float64(hi)))
	}
	b.prev = d
	return d
}

// Reset restarts the schedule at Min.
func (b *Backoff) Reset() { b.prev = 0 }

// SleepCtx sleeps d, or until ctx ends and then returns its error.
func SleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
