package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// failOnceSnapshotter is a member's durability hook whose first
// snapshot fails; every later one persists the engine's state, as the
// daemon's journal snapshot does.
type failOnceSnapshotter struct {
	eng *shard.Engine

	mu    sync.Mutex
	calls int
	disk  []byte // the last persisted state
}

func (s *failOnceSnapshotter) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls == 1 {
		return errors.New("injected snapshot failure")
	}
	var buf bytes.Buffer
	if err := s.eng.WriteSnapshot(&buf); err != nil {
		return err
	}
	s.disk = buf.Bytes()
	return nil
}

// TestClusterApplyAckIsDurable: an apply whose snapshot fails answers
// 503 with the window already charged in memory. The router's retry of
// the same window must not charge it again, and must not be acked
// until a snapshot holds the charge — otherwise a crash after the ack
// loses a window nobody re-runs.
func TestClusterApplyAckIsDurable(t *testing.T) {
	tc := newTestCluster(t, 1, 2)
	m := tc.members[0]
	snap := &failOnceSnapshotter{eng: m.eng}
	member, err := NewMember(tc.table, m.url, m.eng, snap)
	if err != nil {
		t.Fatal(err)
	}
	m.member = member
	m.up()

	apply := func() int {
		t.Helper()
		body := `{"start":0,"end":30,"observations":[{"rater":7,"n":3,"f":0,"s":3,"mass":3}]}`
		resp, err := http.Post(m.url+"/v1/cluster/apply", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if code := apply(); code != http.StatusServiceUnavailable {
		t.Fatalf("apply with a failing snapshot answered %d, want 503", code)
	}
	charged, ok := m.eng.TrustSnapshot()[7]
	if !ok {
		t.Fatal("the failed apply left rater 7 uncharged: the test proves nothing")
	}
	if code := apply(); code != http.StatusOK {
		t.Fatalf("re-delivered apply answered %d, want 200", code)
	}
	if got := m.eng.TrustSnapshot()[7]; got != charged {
		t.Fatalf("re-delivery charged the window again: trust %g -> %g", charged, got)
	}

	snap.mu.Lock()
	calls, disk := snap.calls, snap.disk
	snap.mu.Unlock()
	if calls != 2 || disk == nil {
		t.Fatalf("the apply was acked after %d snapshot calls and nothing persisted since the failure", calls)
	}
	restored, err := shard.NewEngine(core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadSnapshot(bytes.NewReader(disk)); err != nil {
		t.Fatal(err)
	}
	if got, ok := restored.TrustSnapshot()[7]; !ok || got != charged {
		t.Fatalf("persisted trust of rater 7 %g (recorded %v), live %g: the acked window is not durable", got, ok, charged)
	}
}
