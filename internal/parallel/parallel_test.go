package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

func TestMapWorkerInvariance(t *testing.T) {
	// The contract: identical outputs for every worker count, even when
	// each item does schedule-sensitive amounts of work.
	ref, err := Map(64, 1, func(i int) (float64, error) {
		s := 0.0
		for k := 0; k < (i%7+1)*1000; k++ {
			s += float64(k) * 1e-9
		}
		return s + float64(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Map(64, workers, func(i int) (float64, error) {
			s := 0.0
			for k := 0; k < (i%7+1)*1000; k++ {
				s += float64(k) * 1e-9
			}
			return s + float64(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v != %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Items 3 and 7 fail; the error surfaced must be item 3's for every
	// worker count (schedule-independent error identity).
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(10, workers, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: err = %v, want item 3's", workers, err)
		}
	}
}

func TestMapAllItemsRunDespiteError(t *testing.T) {
	// No early cancellation: every item must run even when an early
	// index fails.
	var ran atomic.Int64
	_, err := Map(50, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first item failed")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d of 50 items", got)
	}
}

func TestMapLocalOnePerWorker(t *testing.T) {
	// Each worker gets exactly one local; with workers=4 and plenty of
	// items, at most 4 locals are constructed.
	var made atomic.Int64
	type local struct{ id int64 }
	out, err := MapLocal(200, 4,
		func() *local { return &local{id: made.Add(1)} },
		func(i int, l *local) (int64, error) { return l.id, nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n < 1 || n > 4 {
		t.Fatalf("made %d locals with 4 workers", n)
	}
	seen := map[int64]bool{}
	for _, id := range out {
		seen[id] = true
	}
	if len(seen) > 4 {
		t.Fatalf("items saw %d distinct locals", len(seen))
	}
}

func TestMapLocalSerialFastPath(t *testing.T) {
	var made atomic.Int64
	out, err := MapLocal(10, 1,
		func() int { return int(made.Add(1)) },
		func(i int, l int) (int, error) { return i + l, nil })
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() != 1 {
		t.Fatalf("serial path made %d locals", made.Load())
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkersCappedAtItems(t *testing.T) {
	// More workers than items must not deadlock or misbehave.
	out, err := Map(3, 64, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
