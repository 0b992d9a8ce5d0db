package main

// A promoted follower is a native primary in everything its flags
// decide: background snapshots, interval fsync, the crash path and the
// served surface. No write is lost or answered 5xx through the switch.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/journal"
	"repro/internal/rating"
	"repro/internal/wal"
)

// seedPrimary serves a two-shard primary holding 20 ratings and one
// closed window (barrier 1).
func seedPrimary(t *testing.T) *replDaemon {
	t.Helper()
	p := startPrimaryDaemon(t, 2)
	var batch []string
	for i := 0; i < 20; i++ {
		batch = append(batch, fmt.Sprintf(`{"rater":%d,"object":%d,"value":%g,"time":%g}`,
			i%5+1, i%3+1, 0.2+float64(i%4)*0.2, float64(i)))
	}
	if res, data := postJSON(t, p.ts.URL+"/v1/ratings", "["+strings.Join(batch, ",")+"]"); res.StatusCode != http.StatusOK {
		t.Fatalf("primary submit: %d %s", res.StatusCode, data)
	}
	if res, data := postJSON(t, p.ts.URL+"/v1/process", `{"start":0,"end":30}`); res.StatusCode != http.StatusOK {
		t.Fatalf("primary process: %d %s", res.StatusCode, data)
	}
	return p
}

// awaitCaughtUp waits until the follower at f reflects seedPrimary's
// state.
func awaitCaughtUp(t *testing.T, f *replDaemon) {
	t.Helper()
	waitDaemon(t, 10*time.Second, "follower convergence", func() bool {
		st := replStatus(t, f.ts.URL)
		return st.Role == api.RoleFollower && st.BarrierSeq == 1 && st.LagRecords == 0
	})
}

// promotedFollower follows a seeded primary with the extra flags and
// is promoted once it has caught up.
func promotedFollower(t *testing.T, extra ...string) *replDaemon {
	t.Helper()
	p := seedPrimary(t)
	f := startFollowerDaemon(t, p.ts.URL, 2, extra...)
	awaitCaughtUp(t, f)
	if err := promoteRemote(f.ts.URL); err != nil {
		t.Fatal(err)
	}
	return f
}

// promotedJournal reads d's journal under the lock promotion holds.
func promotedJournal(d *daemon) *journal.Journal {
	d.node.mu.Lock()
	defer d.node.mu.Unlock()
	return d.journal
}

// newestSnap is the newest snapshot file name in any shard log of
// dir's live epoch.
func newestSnap(t *testing.T, dir string) string {
	t.Helper()
	m, ok, err := journal.ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	newest := ""
	for i := 0; i < m.Shards; i++ {
		names, err := filepath.Glob(filepath.Join(journal.ShardDir(dir, m.Epoch, i), "snap-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if b := filepath.Base(n); b > newest {
				newest = b
			}
		}
	}
	return newest
}

func postRating(t *testing.T, base string, r rating.Rating) {
	t.Helper()
	if res, data := postJSON(t, base+"/v1/ratings", ratingsBody([]rating.Rating{r})); res.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", res.StatusCode, data)
	}
}

// A promoted follower runs the -snap-every loop: after one write a
// newer snapshot lands in the live epoch.
func TestDaemonFollowerPromotedSnapshots(t *testing.T) {
	f := promotedFollower(t, "-snap-every", "50ms")
	before := newestSnap(t, f.walDir)
	postRating(t, f.ts.URL, rating.Rating{Rater: 9, Object: 1, Value: 0.5, Time: 31})
	waitDaemon(t, 2*time.Second, "a snapshot newer than "+before, func() bool {
		return newestSnap(t, f.walDir) > before
	})
}

// A promoted follower runs the -fsync interval loop: its writes are
// fsynced without any further request.
func TestDaemonFollowerPromotedIntervalFsync(t *testing.T) {
	f := promotedFollower(t, "-fsync", "interval", "-fsync-interval", "20ms")
	synced := f.d.walM.FsyncSeconds.Count()
	for i := 0; i < 5; i++ {
		postRating(t, f.ts.URL, rating.Rating{Rater: 9, Object: rating.ObjectID(i + 1), Value: 0.5, Time: 31})
	}
	waitDaemon(t, 2*time.Second, "a background fsync", func() bool {
		return f.d.walM.FsyncSeconds.Count() > synced
	})
}

// Aborting a promoted daemon, the crash path, closes the journal that
// promotion opened.
func TestDaemonFollowerPromotedAbortClosesJournal(t *testing.T) {
	f := promotedFollower(t)
	j := promotedJournal(f.d)
	d := f.d
	f.d = nil
	d.abort()
	if j == nil {
		t.Fatal("the promoted daemon holds no journal")
	}
	err := j.Logs()[0].Append(wal.RatingRecord(rating.Rating{Rater: 9, Object: 1, Value: 0.5, Time: 31}))
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("append to the promoted log after abort: %v, want %v", err, wal.ErrClosed)
	}
}

// requireSameSurface requires the daemons at promoted and native to
// serve byte-identical discovery documents and to answer
// /v1/repl/status with the same status.
func requireSameSurface(t *testing.T, promoted, native string) int {
	t.Helper()
	resP, docP := getBody(t, promoted+"/v1")
	resN, docN := getBody(t, native+"/v1")
	if resP.StatusCode != http.StatusOK || resN.StatusCode != http.StatusOK || string(docP) != string(docN) {
		t.Fatalf("GET /v1: promoted %d %s, native %d %s", resP.StatusCode, docP, resN.StatusCode, docN)
	}
	resP, bodyP := getBody(t, promoted+"/v1/repl/status")
	resN, bodyN := getBody(t, native+"/v1/repl/status")
	if resP.StatusCode != resN.StatusCode {
		t.Fatalf("GET /v1/repl/status: promoted %d %s, native %d %s", resP.StatusCode, bodyP, resN.StatusCode, bodyN)
	}
	return resP.StatusCode
}

// With -wal, a promoted follower and a native primary built from the
// same flags, minus -follow, serve the same surface.
func TestDaemonFollowerPromotedMatchesPrimary(t *testing.T) {
	f := promotedFollower(t)
	native := startReplDaemon(t, newPrimary, 2, "-max-lag-records", "10000", "-repl-seed", "7")
	if code := requireSameSurface(t, f.ts.URL, native.ts.URL); code != http.StatusOK {
		t.Fatalf("GET /v1/repl/status: %d on both, want 200", code)
	}
}

// Without -wal there are no logs to replicate, and a promoted follower
// mounts no /v1/repl routes, exactly like a native primary.
func TestDaemonFollowerPromotedWithoutWALMatchesPrimary(t *testing.T) {
	p := seedPrimary(t)
	flags := []string{"-shards", "2", "-batch", "64", "-batch-interval", "1ms",
		"-max-lag-records", "10000", "-repl-seed", "7"}
	f := serveDaemon(t, newFollower, append([]string{"-follow", p.ts.URL}, flags...)...)
	awaitCaughtUp(t, f)
	if err := promoteRemote(f.ts.URL); err != nil {
		t.Fatal(err)
	}
	native := serveDaemon(t, newPrimary, flags...)
	requireSameSurface(t, f.ts.URL, native.ts.URL)
}

// Unary writers hit a follower through its promotion. Every answer is
// a 421 not_primary or a 200, and every 200 went through the promoted
// WAL: after a crash (abort, no final snapshot) a native primary
// reopened on the -wal directory holds each acknowledged rating and
// nothing that was refused.
func TestDaemonFollowerPromotesUnderWrites(t *testing.T) {
	p := seedPrimary(t)
	f := startFollowerDaemon(t, p.ts.URL, 2)
	awaitCaughtUp(t, f)
	replicated := f.d.engine.Len()

	const writers = 4
	var (
		refused, accepted atomic.Int64
		acked             [writers][]rating.Rating
		wg                sync.WaitGroup
		stop              = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := rating.Rating{Rater: rating.RaterID(100 + w), Object: rating.ObjectID(1000*(w+1) + i), Value: 0.5, Time: 31}
				res, err := http.Post(f.ts.URL+"/v1/ratings", "application/json", strings.NewReader(ratingsBody([]rating.Rating{r})))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				data, _ := io.ReadAll(res.Body)
				res.Body.Close()
				var env api.Error
				switch {
				case res.StatusCode == http.StatusOK:
					acked[w] = append(acked[w], r)
					accepted.Add(1)
				case res.StatusCode == http.StatusMisdirectedRequest && json.Unmarshal(data, &env) == nil && env.Code == api.CodeNotPrimary:
					refused.Add(1)
				default:
					t.Errorf("writer %d, write %d: %d %s", w, i, res.StatusCode, data)
					return
				}
			}
		}(w)
	}
	stopWriters := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopWriters()

	waitDaemon(t, 10*time.Second, "refused writes", func() bool { return refused.Load() >= 2*writers })
	if err := promoteRemote(f.ts.URL); err != nil {
		t.Fatal(err)
	}
	waitDaemon(t, 10*time.Second, "acknowledged writes", func() bool { return accepted.Load() >= 10*writers })
	stopWriters()

	d := f.d
	f.d = nil
	d.abort()
	reopened := build(t, newPrimary, "-wal", f.walDir, "-shards", "2", "-fsync", "never")
	t.Cleanup(func() { closeDaemon(t, reopened) })
	held := make(map[rating.Rating]bool)
	for _, r := range reopened.engine.View().Ratings {
		held[r] = true
	}
	for w := range acked {
		for _, r := range acked[w] {
			if !held[r] {
				t.Errorf("acknowledged rating %+v lost", r)
			}
		}
	}
	if got, want := reopened.engine.Len(), replicated+int(accepted.Load()); got != want {
		t.Fatalf("reopened primary holds %d ratings, want %d replicated + %d acknowledged", got, replicated, accepted.Load())
	}
}
