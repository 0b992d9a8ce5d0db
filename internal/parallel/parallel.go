// Package parallel is the deterministic fan-out substrate for the
// Monte-Carlo experiment drivers and the per-object maintenance scans.
// Its contract is bit-identical results regardless of worker count:
//
//   - work items are independent and identified only by their index;
//   - randomness, when needed, comes from a per-item stream derived
//     from (base seed, item index) — never from a shared stream whose
//     draw order would depend on scheduling (see randx.Seeds and
//     randx.Derive);
//   - results are committed in item order, so reductions fold exactly
//     as a serial loop would.
//
// The pool is bounded: min(workers, items) goroutines pull indices from
// a shared counter, so a long-tailed item never strands the others.
// Workers resolves the count from GOMAXPROCS when the caller passes 0.
//
// Mutable per-worker state (e.g. a signal.Workspace) goes through
// MapLocal, which builds one local value per worker goroutine — one
// workspace per goroutine, never shared.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Report describes one completed Map/MapLocal call for an Observer:
// how many items ran on how many workers, the call's wall time, and
// the summed busy time across workers. Busy/(Wall·Workers) is the
// pool's utilization; Items/Wall.Seconds() its throughput.
type Report struct {
	Items, Workers int
	Wall, Busy     time.Duration
}

// observer holds the installed Observer; nil means no instrumentation
// (and no clock reads at all on the fan-out path).
var observer atomic.Pointer[Observer]

// Observer receives one Report per completed fan-out call. It may be
// called concurrently from different fan-outs and must be safe for
// concurrent use.
type Observer func(Report)

// SetObserver installs fn as the process-wide fan-out observer
// (telemetry wiring in cmd/ratingd); nil uninstalls it. Timing costs
// are only paid while an observer is installed.
func SetObserver(fn Observer) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// Workers resolves a requested worker count: n >= 1 is used as given,
// anything else (0 or negative) means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns the results indexed by item. The output is bit-identical for
// every worker count because item i's result always lands in slot i and
// fn receives nothing but the index.
//
// On failure Map returns the error of the lowest-indexed failing item.
// Every item still runs (there is no early cancellation), so the error
// returned — like the results — is independent of scheduling.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapLocal(n, workers, func() struct{} { return struct{}{} },
		func(i int, _ struct{}) (T, error) { return fn(i) })
}

// MapLocal is Map with per-worker local state: newLocal is invoked once
// per worker goroutine and its value is passed to every fn call that
// worker executes. It exists for reusable scratch (workspaces, buffers)
// that is cheap to share across items but must never be shared across
// goroutines. fn must not let the local escape into its result.
func MapLocal[T, L any](n, workers int, newLocal func() L, fn func(i int, local L) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	obs := observer.Load()
	var began time.Time
	if obs != nil {
		began = time.Now()
	}
	if workers == 1 {
		// Serial fast path: no goroutines, same commit order.
		local := newLocal()
		for i := 0; i < n; i++ {
			v, err := fn(i, local)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if obs != nil {
			wall := time.Since(began)
			(*obs)(Report{Items: n, Workers: 1, Wall: wall, Busy: wall})
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var busy atomic.Int64 // summed per-worker busy nanoseconds
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var workerBegan time.Time
			if obs != nil {
				workerBegan = time.Now()
				defer func() { busy.Add(int64(time.Since(workerBegan))) }()
			}
			local := newLocal()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i, local)
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if obs != nil {
		(*obs)(Report{
			Items:   n,
			Workers: workers,
			Wall:    time.Since(began),
			Busy:    time.Duration(busy.Load()),
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
