package repl

import (
	"errors"
	"testing"
	"time"

	"repro/internal/api"
)

// A frame type the follower does not know, the retired single-log
// "process" window among them, makes it resync the stream rather than
// guess at the frame's meaning.
func TestFollowerResyncsOnUnknownFrame(t *testing.T) {
	var f Follower
	for _, typ := range []string{"process", "bogus"} {
		if err := f.applyFrame(0, api.ReplFrame{Type: typ}); !errors.Is(err, errResync) {
			t.Errorf("frame type %q: err = %v, want a stream resync", typ, err)
		}
	}
}

// A follower's reconnect delays at a fixed seed, on a shard stream and
// on the bootstrap stream (1<<16), with the default bounds. Each is
// uniform in [ReconnectMin, 3×previous] capped at ReconnectMax; the
// last draw follows a reset.
func TestFollowerBackoffFirstDelays(t *testing.T) {
	for _, tc := range []struct {
		stream int
		want   []time.Duration
	}{
		{0, []time.Duration{62466112, 96828694, 107594065, 213550167, 110768361, 128393938}},
		{1 << 16, []time.Duration{139309339, 105907088, 216199467, 146140317, 370999585, 106278632}},
	} {
		b, rng := NewFollower(FollowerConfig{Seed: 7}).reconnect(tc.stream)
		for i, want := range tc.want {
			if i == len(tc.want)-1 {
				b.Reset()
			}
			if got := b.Next(rng); got != want {
				t.Errorf("stream %d, draw %d: %d, want %d", tc.stream, i, got, want)
			}
		}
	}
}
