package repl_test

// Chaos suite (run under -race by `make chaos-repl`): kill the
// primary mid-batch and promote, kill the follower's bootstrap
// mid-snapshot, and flap the replication stream dozens of times with
// torn-frame injection — asserting zero acked-record loss, clean
// re-bootstrap, and convergence after every flap.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/repl"
	"repro/internal/shard/shardtest"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// TestChaosReplPrimaryKillPromote drains the follower, then kills the
// primary while a batch is mid-replication and promotes the follower.
// Every record acked-and-drained before the kill must survive; the
// promoted state must sit exactly at the last complete barrier.
func TestChaosReplPrimaryKillPromote(t *testing.T) {
	w := shardtest.Workload{Seed: 31, Months: 2}
	months := w.Generate()
	p := newPrimaryNode(t, 4)
	fn := newFollowerNode(t, 4, p.url(), nil)

	// Month 0 through its barrier, fully replicated.
	if err := p.SubmitAll(months[0].Ratings); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessWindow(months[0].Start, months[0].End); err != nil {
		t.Fatal(err)
	}
	fn.waitAligned(1, 10*time.Second)

	// An acked batch, drained to the follower: this is the set that
	// must survive the kill.
	acked := months[1].Ratings[:200]
	if err := p.SubmitAll(acked); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "acked batch drained", func() bool {
		records, _, ok := fn.f.Lag()
		return ok && records == 0 && fn.engine.Len() == p.engine.Len()
	})
	drainedLen := fn.engine.Len()
	drainedTrust := fn.engine.TrustSnapshot()
	if !reflect.DeepEqual(drainedTrust, p.engine.TrustSnapshot()) {
		t.Fatal("trust diverged before the kill")
	}

	// Kill the primary while another batch is in flight. Its records
	// were never drained; they may survive partially (whole frames
	// only) or not at all.
	inflight := months[1].Ratings[200:400]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		_ = p.SubmitAll(inflight) // racing the kill; error or success both fine
	}()
	p.kill()
	<-killed

	// Promote-on-primary-death: wait until contact goes stale, then
	// promote.
	waitFor(t, 10*time.Second, "contact staleness", func() bool {
		return time.Since(fn.f.LastContact()) > 300*time.Millisecond
	})
	next := fn.f.Promote()
	if next != 2 {
		t.Fatalf("promoted next barrier = %d, want 2 (last complete barrier 1)", next)
	}

	// Zero acked-record loss: everything drained pre-kill is present;
	// anything beyond it is a prefix of the in-flight batch.
	got := fn.engine.Len()
	if got < drainedLen {
		t.Fatalf("promoted state lost acked records: len %d < drained %d", got, drainedLen)
	}
	if max := drainedLen + len(inflight); got > max {
		t.Fatalf("promoted state invented records: len %d > %d", got, max)
	}
	// Trust only moves at barriers, and no barrier followed the kill —
	// the promoted trust state must be exactly the drained one.
	if !reflect.DeepEqual(fn.engine.TrustSnapshot(), drainedTrust) {
		t.Fatal("promoted trust state diverged from last complete barrier")
	}

	// The promoted engine keeps working as a primary's engine: new
	// ingest and a new window proceed from the consistent cut.
	if err := fn.engine.SubmitAll(months[1].Ratings[400:]); err != nil {
		t.Fatalf("post-promotion ingest: %v", err)
	}
	if _, err := fn.engine.ProcessWindow(months[1].Start, months[1].End); err != nil {
		t.Fatalf("post-promotion window: %v", err)
	}
}

// TestChaosReplRefusedCommitResetsFollower fails one commit fsync of a
// -fsync always primary with a follower tailing it, then writes more
// ratings than were refused and a window; the follower must end equal
// to the primary at zero lag. In "streamed" the follower has already
// applied the batch the commit refuses, as it may between a flush's
// append and its commit: the refused offsets are never reused, so it
// must re-bootstrap rather than resume inside later frames and skip
// them. In "journal" the flush is refused before the follower reads
// it: the refused records must leave the primary's appended count, or
// the follower's lag never reaches zero.
func TestChaosReplRefusedCommitResetsFollower(t *testing.T) {
	for _, streamed := range []bool{true, false} {
		name := map[bool]string{true: "streamed", false: "journal"}[streamed]
		t.Run(name, func(t *testing.T) {
			w := shardtest.Workload{Seed: 71, Months: 2}
			months := w.Generate()
			fs := faultinject.NewMemFS()
			p := newPrimaryNodeWAL(t, 1, wal.Options{FS: fs, Policy: wal.SyncAlways})
			metrics := repl.NewMetrics(telemetry.NewRegistry())
			fn := newFollowerNode(t, 1, p.url(), func(cfg *repl.FollowerConfig) {
				cfg.Metrics = metrics
			})
			if err := p.SubmitAll(months[0].Ratings); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ProcessWindow(months[0].Start, months[0].End); err != nil {
				t.Fatal(err)
			}
			fn.waitAligned(1, 10*time.Second)

			refused := months[1].Ratings[:40]
			failSync := func() {
				fired := false
				fs.SetInjector(func(op faultinject.Op) *faultinject.Fault {
					if op.Kind == "sync" && !fired {
						fired = true
						return &faultinject.Fault{Err: faultinject.ErrInjected}
					}
					return nil
				})
			}
			if streamed {
				// The journal's flush, paused between its append and
				// its commit until the follower has applied the batch.
				recs := make([]wal.Record, len(refused))
				for i, r := range refused {
					recs[i] = wal.RatingRecord(r)
				}
				log := p.Logs()[0]
				tok, err := log.AppendAllBuffered(recs)
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, 10*time.Second, "unsynced batch streamed", func() bool {
					return fn.engine.Len() == p.engine.Len()+len(refused)
				})
				failSync()
				if err := log.Commit(tok); err == nil {
					t.Fatal("commit with a failed fsync returned nil")
				}
			} else {
				failSync()
				if err := p.SubmitAll(refused); err == nil {
					t.Fatal("submit with a failed fsync returned nil")
				}
			}

			if err := p.SubmitAll(months[1].Ratings[len(refused):]); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ProcessWindow(months[1].Start, months[1].End); err != nil {
				t.Fatal(err)
			}
			fn.waitAligned(2, 10*time.Second)
			want, err := shardtest.Fingerprint(p, w.Objects)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shardtest.Fingerprint(fn.engine, w.Objects)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("follower diverged after a refused commit:\n--- primary\n%s--- follower\n%s", want, got)
			}
			if n := metrics.Bootstraps.Value(); streamed && n < 2 {
				t.Fatalf("bootstraps = %d, want a re-bootstrap after the refused commit", n)
			}
		})
	}
}

// TestChaosReplFollowerKilledMidBootstrap truncates the snapshot
// response mid-body several times; the follower must never apply a
// partial snapshot and must bootstrap cleanly once the fault clears.
func TestChaosReplFollowerKilledMidBootstrap(t *testing.T) {
	w := shardtest.Workload{Seed: 47, Months: 1}
	months := w.Generate()
	p := newPrimaryNode(t, 2)
	if err := p.SubmitAll(months[0].Ratings); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessWindow(months[0].Start, months[0].End); err != nil {
		t.Fatal(err)
	}

	front := newChaosFrontend(t, p.url())
	front.snapLimit.Store(200) // every snapshot response dies after 200 bytes

	reg := telemetry.NewRegistry()
	metrics := repl.NewMetrics(reg)
	fn := newFollowerNode(t, 2, front.url(), func(cfg *repl.FollowerConfig) {
		cfg.Metrics = metrics
	})

	waitFor(t, 10*time.Second, "3 truncated bootstrap attempts", func() bool {
		return front.snapCuts.Load() >= 3
	})
	if _, _, ok := fn.f.Lag(); ok {
		t.Fatal("follower claims bootstrap from truncated snapshots")
	}
	if n := fn.engine.Len(); n != 0 {
		t.Fatalf("partial snapshot leaked %d records into the engine", n)
	}

	front.snapLimit.Store(0)
	fn.waitAligned(1, 10*time.Second)
	if n := metrics.Bootstraps.Value(); n != 1 {
		t.Fatalf("bootstraps counter %d, want exactly 1 successful", n)
	}

	want, err := shardtest.Fingerprint(p, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(fn.engine, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-fault follower diverged:\n--- primary\n%s--- follower\n%s", want, got)
	}
}

// TestChaosReplStreamFlaps severs the replication stream 24 times
// during live ingest — every third flap also injecting a torn frame —
// and requires convergence after every single flap, with the resync
// and reconnect counters actually moving and final lag zero.
func TestChaosReplStreamFlaps(t *testing.T) {
	const chunksPerMonth = 6
	w := shardtest.Workload{Seed: 63, Months: 4, PerMonth: 240}
	months := w.Generate()
	p := newPrimaryNode(t, 2)
	front := newChaosFrontend(t, p.url())

	reg := telemetry.NewRegistry()
	metrics := repl.NewMetrics(reg)
	fn := newFollowerNode(t, 2, front.url(), func(cfg *repl.FollowerConfig) {
		cfg.Metrics = metrics
	})
	fn.waitAligned(0, 10*time.Second)

	flaps := 0
	for m, month := range months {
		n := len(month.Ratings)
		for c := 0; c < chunksPerMonth; c++ {
			chunk := month.Ratings[c*n/chunksPerMonth : (c+1)*n/chunksPerMonth]
			if err := p.SubmitAll(chunk); err != nil {
				t.Fatal(err)
			}
			if flaps%3 == 0 {
				front.armGarble() // the reconnect after this flap eats a torn frame
			}
			front.sever()
			flaps++
			// Convergence after every flap: lag must return to zero.
			waitFor(t, 10*time.Second, fmt.Sprintf("convergence after flap %d", flaps), func() bool {
				records, _, ok := fn.f.Lag()
				return ok && records == 0 && fn.engine.Len() == p.engine.Len()
			})
		}
		if _, err := p.ProcessWindow(month.Start, month.End); err != nil {
			t.Fatal(err)
		}
		fn.waitAligned(uint64(m+1), 10*time.Second)
	}
	if flaps < 20 {
		t.Fatalf("only %d flaps exercised, want >= 20", flaps)
	}

	st := fn.f.Status()
	if st.LagRecords != 0 {
		t.Fatalf("final lag %d records, want 0", st.LagRecords)
	}
	if metrics.Resyncs.Value() == 0 || st.Resyncs == 0 {
		t.Fatalf("repl_resyncs_total = %d (status %d), want > 0 after torn-frame injection",
			metrics.Resyncs.Value(), st.Resyncs)
	}
	if metrics.Reconnects.Value() == 0 || st.Reconnects == 0 {
		t.Fatalf("repl_reconnects_total = %d (status %d), want > 0 after %d flaps",
			metrics.Reconnects.Value(), st.Reconnects, flaps)
	}
	if metrics.Frames.Value() == 0 {
		t.Fatal("repl_frames_total never moved")
	}
	if lag := metrics.LagRecords.Value(); lag != 0 {
		t.Fatalf("repl_lag_records gauge %v, want 0", lag)
	}

	want, err := shardtest.Fingerprint(p, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Fingerprint(fn.engine, w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-flap follower diverged:\n--- primary\n%s--- follower\n%s", want, got)
	}
}
