package shard

import (
	"sync/atomic"

	"repro/internal/rating"
)

// ringSlot is one cell of a shard's ingest ring: the rating, the
// submission it acknowledges into, and the Vyukov sequence stamp that
// publishes the cell between producers and the shard worker without a
// lock.
type ringSlot struct {
	seq atomic.Uint64
	r   rating.Rating
	sub *submission
}

// ring is a bounded lock-free multi-producer single-consumer queue
// (Vyukov's bounded MPMC scheme, specialized to one consumer): the
// router's replacement for the old mutex+waiter shardBatcher. Many
// submitter goroutines claim slots with one CAS each; the shard
// worker drains with plain loads and per-slot releases. Capacity is a
// power of two fixed at construction — a full ring is backpressure,
// not an error (see Router.push).
type ring struct {
	slots []ringSlot
	mask  uint64
	size  uint64

	// head is the next position a producer claims. Padded away from
	// the consumer-owned tail so producers and the worker don't false-
	// share a cache line.
	head atomic.Uint64
	_    [56]byte
	// tail is the next position the worker consumes. Single consumer,
	// so a plain field is enough.
	tail uint64
}

func newRing(capacity int) *ring {
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	q := &ring{slots: make([]ringSlot, size), mask: size - 1, size: size}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// push claims a slot and publishes one rating. It returns false when
// the ring is full; the caller decides how to wait (the router rings
// the worker's doorbell and parks on its space channel).
func (q *ring) push(r rating.Rating, sub *submission) bool {
	for {
		pos := q.head.Load()
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if q.head.CompareAndSwap(pos, pos+1) {
				s.r, s.sub = r, sub
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // full: the consumer has not freed this slot yet
		}
		// seq > pos: another producer claimed pos; reload and retry.
	}
}
