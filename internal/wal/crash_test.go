package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/randx"
	"repro/internal/rating"
)

// TestTornFinalRecordEveryOffset truncates the durable log inside the
// final frame at every possible byte offset; recovery must warn, drop
// only the final record, and never refuse to start.
func TestTornFinalRecordEveryOffset(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := Options{Dir: "w", FS: fs, Policy: SyncAlways, SegmentBytes: 1 << 20}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := l.Append(mkRating(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	disk := fs.DurableFiles()
	var segName string
	for name := range disk {
		if strings.Contains(name, segmentPrefix) {
			segName = name
		}
	}
	data := disk[segName]
	// Find where the last frame starts.
	recs, _, perr := parseFrames(data)
	if perr != nil || len(recs) != n {
		t.Fatalf("setup: %v, %d records", perr, len(recs))
	}
	lastStart := 0
	off := 0
	for i := 0; i < n; i++ {
		lastStart = off
		plen := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeader + plen
	}

	for cut := lastStart + 1; cut < len(data); cut++ {
		files := map[string][]byte{segName: append([]byte(nil), data[:cut]...)}
		fs2 := faultinject.NewMemFSFromFiles(files)
		warned := false
		o := Options{Dir: "w", FS: fs2, Policy: SyncAlways,
			Warnf: func(string, ...any) { warned = true }}
		l2, recov, err := Open(o)
		if err != nil {
			t.Fatalf("cut %d: startup refused: %v", cut, err)
		}
		if !recov.Torn || !warned {
			t.Fatalf("cut %d: tear not reported (torn=%v warned=%v)", cut, recov.Torn, warned)
		}
		if len(recov.Records) != n-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recov.Records), n-1)
		}
		// The log must keep working: append and re-recover cleanly.
		if err := l2.Append(mkRating(100)); err != nil {
			t.Fatalf("cut %d: append after tear: %v", cut, err)
		}
		l2.Close()
		_, recov2, err := Open(Options{Dir: "w", FS: fs2})
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if recov2.Torn {
			t.Fatalf("cut %d: tear reported again after truncation", cut)
		}
		times := recordTimes(recov2.Records)
		if len(times) != n || times[len(times)-1] != 100 {
			t.Fatalf("cut %d: post-tear log %v", cut, times)
		}
	}
}

// TestTornTailAcrossSegmentBoundary tears the last frame of a
// non-final segment (the shape a failed append leaves behind) and
// checks recovery truncates it and keeps replaying later segments.
func TestTornTailAcrossSegmentBoundary(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := Options{Dir: "w", FS: fs, Policy: SyncAlways, SegmentBytes: 1 << 20}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Append(mkRating(i))
	}
	l.Close()
	disk := fs.DurableFiles()
	seg0 := "w/" + segmentName(0)
	// Tear 3 bytes off segment 0's final frame and add a clean
	// follow-up segment, as the seal-and-rotate discipline produces.
	disk[seg0] = disk[seg0][:len(disk[seg0])-3]
	disk["w/"+segmentName(1)] = appendFrame(nil, mkRating(9))

	fs2 := faultinject.NewMemFSFromFiles(disk)
	_, recov, err := Open(Options{Dir: "w", FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	if !recov.Torn {
		t.Fatal("tear not reported")
	}
	times := recordTimes(recov.Records)
	want := []float64{0, 1, 2, 9}
	if fmt.Sprint(times) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", times, want)
	}
}

// chaosSeeds returns how many seeds the chaos sweep runs. CHAOS_SEEDS
// raises it (make chaos runs a denser sweep); the default keeps the
// tier-1 suite fast.
func chaosSeeds() int {
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

// TestChaosSeededFaultSweep drives a scripted workload against a
// fault-injecting filesystem, one deterministic run per seed. The
// invariants, regardless of which operations fail or when the crash
// lands:
//
//   - recovery never returns an error;
//   - the recovered sequence is an ordered subsequence of the appends
//     that were attempted;
//   - every acknowledged append (Append returned nil under
//     SyncAlways) is present in the recovered sequence.
//
// Scheduling uses no wall clock and no global randomness: the seed
// fully determines every run.
func TestChaosSeededFaultSweep(t *testing.T) {
	for seed := int64(1); seed <= int64(chaosSeeds()); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed int64) {
	const (
		appends  = 400
		snapEach = 120
		density  = 0.03
	)
	fs := faultinject.NewMemFS()
	opts := Options{Dir: "w", FS: fs, Policy: SyncAlways, SegmentBytes: 1 << 9}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatalf("clean open failed: %v", err)
	}

	var acked []float64       // ids of acknowledged appends
	var ackedAtSnap []float64 // baseline state at the last successful snapshot
	rng := randx.New(seed)
	fs.SetInjector(faultinject.NewSeededInjector(rng.Int63(), density))

	crashed := false
	for i := 0; i < appends; i++ {
		id := float64(i)
		var rec Record
		if i%37 == 36 {
			rec = BarrierRecord(uint64(i/37+1), id, id+0.5)
		} else {
			rec = RatingRecord(rating.Rating{Rater: 1, Object: 1, Value: 0.5, Time: id})
		}
		err := l.Append(rec)
		switch {
		case err == nil:
			acked = append(acked, id)
		case errors.Is(err, faultinject.ErrCrashed):
			crashed = true
		}
		if crashed {
			break
		}
		if (i+1)%snapEach == 0 {
			state := append([]float64(nil), acked...)
			err := l.Snapshot(func(w io.Writer) error {
				return json.NewEncoder(w).Encode(state)
			})
			if err == nil {
				ackedAtSnap = state
			} else if errors.Is(err, faultinject.ErrCrashed) {
				crashed = true
				break
			}
		}
	}
	_ = ackedAtSnap // the baseline is re-derived from disk below

	// Power loss (or clean end of run), then recovery with the
	// injector disabled — a healthy disk controller after reboot.
	if crashed {
		fs.Crash()
	} else {
		l.Close()
	}
	fs.SetInjector(nil)

	_, recov, err := Open(Options{Dir: "w", FS: fs, Policy: SyncAlways, SegmentBytes: 1 << 9})
	if err != nil {
		t.Fatalf("recovery refused to start: %v", err)
	}
	var got []float64
	if recov.Snapshot != nil {
		if err := json.Unmarshal(recov.Snapshot, &got); err != nil {
			t.Fatalf("recovered snapshot corrupt: %v", err)
		}
	}
	got = append(got, recordTimes(recov.Records)...)

	// Ordered subsequence of attempted appends (ids are 0..n-1 in
	// order, so strictly increasing ids in range is equivalent).
	for i, id := range got {
		if id < 0 || id >= appends {
			t.Fatalf("recovered unknown id %v", id)
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("recovered ids out of order at %d: %v", i, got[i-3:i+1])
		}
	}
	// Every acked record survived.
	idx := make(map[float64]bool, len(got))
	for _, id := range got {
		idx[id] = true
	}
	for _, id := range acked {
		if !idx[id] {
			t.Fatalf("acked id %v lost (crashed=%v, recovered %d of %d acked)",
				id, crashed, len(got), len(acked))
		}
	}
}
