package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// layer names one hop of the serving stack. The benchmark records a
// span around each call it makes into a layer (stack.go wraps the
// public constructors' seams); nothing inside the program is traced.
type layer uint8

const (
	lGen            layer = iota // request building, response checks
	lIdle                        // open-loop senders waiting for the schedule
	lServer                      // server.Server.ServeHTTP self time
	lServerStream                // the same on POST /v1/ratings:stream
	lRouterWait                  // shard.Router submit/wait not covered by a flush
	lWALAppend                   // wal.Log.AppendAllBuffered (and barrier appends)
	lWALCommit                   // wal.Log.Commit: group-commit fsync wait
	lShardSubmit                 // shard.Engine.SubmitShard: validate + store merge
	lShardAggregate              // shard.Engine.Aggregate: read-cache misses
	lShardWindow                 // shard.Engine.ProcessWindow minus core stages
	numLayers
)

var layerNames = [numLayers]string{
	lGen:            "gen",
	lIdle:           "gen.idle",
	lServer:         "server",
	lServerStream:   "server.stream",
	lRouterWait:     "shard.router.wait",
	lWALAppend:      "wal.append",
	lWALCommit:      "wal.commit",
	lShardSubmit:    "shard.submit",
	lShardAggregate: "shard.aggregate",
	lShardWindow:    "shard.window",
}

// waits marks layers that only block on work other goroutines do:
// they are charged wall time only when nothing else is running.
var waits = [numLayers]bool{lIdle: true, lRouterWait: true}

type span struct {
	layer      layer
	track      int64 // goroutine the span ran on
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory; attribution runs after the replay. A
// nil *tracer records nothing, which is the spans-off run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

type spanHandle struct {
	t     *tracer
	layer layer
	track int64
	start int64
}

func (t *tracer) begin(l layer) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	return spanHandle{t: t, layer: l, track: goid(), start: int64(time.Since(t.origin))}
}

func (h spanHandle) end() {
	if h.t == nil {
		return
	}
	s := span{layer: h.layer, track: h.track, start: h.start, end: int64(time.Since(h.t.origin))}
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, s)
	h.t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// goid parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). Spans nest properly per goroutine, so
// the ID is what separates concurrent chains.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// attribute charges every instant of [from, to) to the layers running
// at that instant, so the per-layer self times add up to the covered
// wall time exactly. On each goroutine the innermost open span is the
// one running; when several goroutines run at once the instant is
// split evenly between them, and wait layers get the instant only when
// nothing else runs. An instant with no open span stays uncharged: the
// coverage check (charged / wall) catches untraced gaps.
func (t *tracer) attribute(from, to int64) (self [numLayers]float64, raw [numLayers]float64) {
	type event struct {
		at   int64
		open bool
		idx  int
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.end <= from || s.start >= to {
			continue
		}
		s.start, s.end = max(s.start, from), min(s.end, to)
		spans[i] = s
		raw[s.layer] += float64(s.end-s.start) / 1e9
		events = append(events, event{s.start, true, i}, event{s.end, false, i})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].open && events[j].open // close before open at a tie
	})
	open := map[int64][]int{} // track -> open span indices, outermost first
	var leaves []int
	for k, ev := range events {
		s := spans[ev.idx]
		if ev.open {
			open[s.track] = append(open[s.track], ev.idx)
		} else {
			stack := open[s.track]
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == ev.idx {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			if len(stack) == 0 {
				delete(open, s.track)
			} else {
				open[s.track] = stack
			}
		}
		if k+1 == len(events) {
			break
		}
		dt := float64(events[k+1].at-ev.at) / 1e9
		if dt <= 0 || len(open) == 0 {
			continue
		}
		leaves = leaves[:0]
		busy := false
		for _, stack := range open {
			leaf := stack[len(stack)-1]
			leaves = append(leaves, leaf)
			if !waits[spans[leaf].layer] {
				busy = true
			}
		}
		n := 0
		for _, leaf := range leaves {
			if !busy || !waits[spans[leaf].layer] {
				n++
			}
		}
		for _, leaf := range leaves {
			if !busy || !waits[spans[leaf].layer] {
				self[spans[leaf].layer] += dt / float64(n)
			}
		}
	}
	return self, raw
}
