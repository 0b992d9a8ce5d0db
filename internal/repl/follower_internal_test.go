package repl

import (
	"errors"
	"testing"

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
