package main

import (
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rating"
	"repro/internal/shard/shardtest"
)

// chaosStreamWorkload is one time-sorted rating sequence: the live
// streaming regime, where arrival order is rating-clock order and the
// store's per-object order therefore equals the push order a stream
// rebuild replays.
func chaosStreamWorkload() []rating.Rating {
	w := shardtest.Workload{Seed: 11, Objects: 5, Raters: 20, Malicious: 4, Months: 3, PerMonth: 300, BurstLen: 60}
	var all []rating.Rating
	for _, m := range w.Generate() {
		all = append(all, m.Ratings...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return all
}

// submitSeq submits one rating at a time, in order. One big SubmitAll
// would spread the batch across per-shard rings that drain
// concurrently, letting a later-time rating on one shard fire a
// window close while an earlier-time rating on another shard is still
// in flight — fine for a live system, but the chaos comparison needs
// every window to see identical evidence in both runs.
func submitSeq(t *testing.T, j *journal.Journal, rs []rating.Rating) {
	t.Helper()
	for i := range rs {
		if err := j.SubmitAll(rs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// streamPrimary builds a durable -stream-detect primary whose rating
// clock closes a maintenance window every 30 rating-days through the
// journal, so barriers are durable.
func streamPrimary(t *testing.T, dir string) *daemon {
	t.Helper()
	return walPrimary(t, dir, 2, "-stream-detect", "-stream-window", "30", "-stream-step", "15",
		"-threshold", "0.08", "-alert-threshold", "0.3", "-maintain-every", "30")
}

// windows is how many maintenance windows the daemon's journal has
// logged, recovered ones included.
func windows(d *daemon) uint64 { return d.journal.NextBarrierSeq() - 1 }

// TestStreamChaosMidWindowCrash kills a -stream-detect daemon mid-way
// through its second maintenance window — after window [0,30) closed
// durably, with in-memory stream suspicion accrued past t=30 that no
// snapshot captured — and requires recovery to reach the exact state
// of a never-crashed run: the WAL tails rebuild the engine, the
// streams rebuild from the time-sorted stores, ResumeAfter keeps the
// catch-up pass from re-charging the already-durable window, and after
// the remaining traffic both the engine fingerprint and the streaming
// suspicion fingerprint are byte-identical to a run that never died.
func TestStreamChaosMidWindowCrash(t *testing.T) {
	all := chaosStreamWorkload()
	const cut = 45.0 // mid-window [30,60): the crash point
	var prefix, rest []rating.Rating
	for _, r := range all {
		if r.Time < cut {
			prefix = append(prefix, r)
		} else {
			rest = append(rest, r)
		}
	}
	if len(prefix) == 0 || len(rest) == 0 {
		t.Fatalf("degenerate cut: %d before, %d after", len(prefix), len(rest))
	}

	// Reference: the never-crashed run.
	ref := streamPrimary(t, t.TempDir())
	if got := features(t, ref.handler); !got.StreamDetect || !got.Replication {
		t.Fatalf("-stream-detect primary features %+v", got)
	}
	submitSeq(t, ref.journal, all)
	ref.stream.Sync()
	closeDaemon(t, ref)
	wantEngine := engineFingerprint(t, ref.engine, 5)
	wantStream := ref.stream.Fingerprint()
	wantWindows := windows(ref)
	if wantWindows < 2 {
		t.Fatalf("reference run fired %d windows", wantWindows)
	}

	// Crash run, phase 1: ingest up to the cut, then die abruptly — no
	// final snapshot, pumps' in-memory suspicion and alert log lost.
	dir := t.TempDir()
	d1 := streamPrimary(t, dir)
	submitSeq(t, d1.journal, prefix)
	d1.stream.Sync()
	if got, end := windows(d1), d1.engine.LastWindowEnd(); got != 1 || end != 30 {
		t.Fatalf("pre-crash: %d windows up to %g, want exactly [0,30)", got, end)
	}
	d1.abort()

	// Recovery: the WAL tails must restore the window high-water mark,
	// streams rebuild from the stores, and the catch-up pass must NOT
	// re-fire the durable [0,30) — re-charging it would double-apply
	// Procedure 2 and diverge from the reference trust state.
	d2 := streamPrimary(t, dir)
	if got := d2.engine.LastWindowEnd(); got != 30 {
		t.Fatalf("recovered window high-water %g, want 30", got)
	}
	submitSeq(t, d2.journal, rest)
	d2.stream.Sync()
	closeDaemon(t, d2)

	// The recovered run's windows plus the durable one add up to the
	// reference's count exactly: nothing re-fired, nothing was lost.
	if got := windows(d2); got != wantWindows {
		t.Errorf("recovered run logged %d windows, never-crashed run %d", got, wantWindows)
	}
	if got := engineFingerprint(t, d2.engine, 5); got != wantEngine {
		t.Errorf("recovered engine state diverges from never-crashed run:\nwant %q\ngot  %q", wantEngine, got)
	}
	if got := d2.stream.Fingerprint(); got != wantStream {
		t.Errorf("recovered stream state diverges from never-crashed run:\nwant %q\ngot  %q", wantStream, got)
	}
}

// On a -stream-detect -maintain-every primary, ratings for other
// objects push the rating clock past a boundary and close a window;
// the served aggregate of an object the window charged (but gave no
// new rating) equals the core.System oracle after the same window and
// differs from the answer read before.
func TestStreamWindowServesFreshReads(t *testing.T) {
	d := walPrimary(t, t.TempDir(), 2, "-stream-detect", "-maintain-every", "10")
	t.Cleanup(func() { closeDaemon(t, d) })
	ts := httptest.NewServer(d.handler)
	t.Cleanup(ts.Close)
	oracle, err := core.NewSystem(d.o.coreConfig())
	if err != nil {
		t.Fatal(err)
	}

	submitBoth(t, ts.URL, oracle, shardtest.UnevenCharge(1))
	d.stream.Sync()
	before := getAggregate(t, ts.URL, 1)
	getAggregate(t, ts.URL, 1) // a repeated read

	submitBoth(t, ts.URL, oracle, []rating.Rating{{Rater: 5, Object: 7, Value: 0.5, Time: 12}})
	d.stream.Sync() // the pump closes [0,10) through the journal
	if got, end := windows(d), d.engine.LastWindowEnd(); got != 1 || end != 10 {
		t.Fatalf("%d windows up to %g, want exactly [0,10)", got, end)
	}
	if _, err := oracle.ProcessWindow(0, 10); err != nil {
		t.Fatal(err)
	}
	requireFreshAggregate(t, ts.URL, oracle, 1, before)
}
