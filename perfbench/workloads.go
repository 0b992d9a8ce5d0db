package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/rating"
)

// workload is one named input set: the data shape it prepares, the
// daemon it runs against, and how its generator drives it. Sizes are
// for scale 1; the smoke tests shrink histories. README.md
// records why each workload was chosen.
type workload struct {
	name            string
	objects, raters int
	history         int     // ratings recovered at set-up; 0 starts fresh
	span            float64 // rating-days the history covers
	campaigns       int     // unfair-rating campaigns mixed into the history
	launches        int     // set-up launches per run; setup_s is their median
	rounds          bool    // measured in fixed-size rounds, each on a fresh daemon (runRounds)
	streamDetect    bool    // -stream-detect, and an open-loop generator
	drive           func(r *runner, deadline time.Time) error
	verify          func(r *runner) error
}

const (
	windowDays  = 10.0 // width and step of every maintenance window
	chunkLines  = 1024 // ratings per NDJSON ingest request
	ingestDaily = 20000

	// serve-mixed's open loop: a fixed Poisson rate of requests and a
	// maintenance window on a fixed wall-clock cadence. The rate keeps
	// the daemon well short of saturation on two cores, where queueing
	// would make the figures swing from run to run.
	serveRate   = 100.0
	windowEvery = time.Second

	// lateLimit is how far behind its schedule the open-loop generator
	// may dispatch (p99) before a run is declared invalid rather than
	// slow: past it, latencies measure the generator, not ratingd. It
	// sits above the few milliseconds of scheduling delay a generator
	// sharing two cores with the daemon sees; one that cannot keep up
	// falls further behind with every request.
	lateLimit = 25 * time.Millisecond

	// warmShare is the share of a long replay that its figures leave
	// out, while the read cache, the heap and the daemon's batching
	// settle.
	warmShare = 0.2

	// roundRatings is what one ingest round acknowledges; see runRounds.
	roundRatings = 1 << 20
)

var workloads = []*workload{
	{
		name:    "ingest",
		objects: 5000, raters: 50000, rounds: true,
		drive: driveIngest, verify: verifyIngest,
	},
	{
		name:    "serve-mixed",
		objects: 3000, raters: 30000, history: 40000, span: 300, launches: 7, streamDetect: true,
		drive: driveServeMixed, verify: verifyServeMixed,
	},
	{
		name:    "window",
		objects: 2000, raters: 20000, history: 600000, span: 2400, campaigns: 12, launches: 5,
		drive: driveWindows, verify: verifyWindows,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// window is one processed maintenance window and the daemon's answer.
type window struct {
	start, end float64
	resp       api.ProcessResponse
	ok         bool
}

// observations collects what one replay measured and what its
// correctness gates need.
type observations struct {
	mu         sync.Mutex
	t0         time.Time
	samples    []sample
	late       []float64 // seconds the generator sent behind schedule
	attempted  int64
	failed     int64
	firstErr   error
	units      float64 // workload units completed: ratings, requests or windows
	elapsed    float64 // seconds the replay took, in-flight requests included
	acked      []rating.Rating
	ackedCount int64
	windows    []window
	written    map[rating.ObjectID]bool
}

// sample is one successful operation.
type sample struct {
	kind  opKind
	done  float64 // seconds from the replay's start to completion
	lat   float64 // seconds, from scheduled send to completion
	units float64
}

func (o *observations) record(kind opKind, late, lat time.Duration, units float64, err error) {
	done := time.Since(o.t0).Seconds()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.late = append(o.late, late.Seconds())
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
		return
	}
	o.samples = append(o.samples, sample{kind: kind, done: done, lat: lat.Seconds(), units: units})
	o.units += units
}

// lats is every successful operation's latency in seconds, or only
// those of the given kinds.
func (o *observations) lats(kinds ...opKind) []float64 {
	var out []float64
	for _, s := range o.samples {
		if len(kinds) == 0 || slices.Contains(kinds, s.kind) {
			out = append(out, s.lat)
		}
	}
	return out
}

// steady is the replay's throughput (units per second) and latency
// percentiles (seconds) over what completed after the first warmShare
// of it.
func (o *observations) steady() (tput, p50, p90 float64) {
	from := warmShare * o.elapsed
	var units float64
	var lats []float64
	for _, s := range o.samples {
		if s.done >= from {
			units += s.units
			lats = append(lats, s.lat)
		}
	}
	return units / (o.elapsed - from), quantile(lats, 0.5), quantile(lats, 0.9)
}

// runner is one replay of a workload against one deployment.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	pop     *population
	hist    []rating.Rating
	sample  []rating.ObjectID // objects whose aggregates the ingest gate checks
	ingest  [][]chunk         // a round's requests per connection (planIngest)
	cl      *client
	tr      *tracer
	obs     *observations
}

func newRunner(w *workload, seed int64, seconds, scale float64) (*runner, error) {
	r := &runner{w: w, seed: seed, seconds: seconds, pop: newPopulation(seed, w.objects, w.raters)}
	if n := int(float64(w.history) * scale); n > 0 {
		hist, err := r.pop.history(seed+1, n, w.span, w.campaigns)
		if err != nil {
			return nil, err
		}
		r.hist = hist
	}
	// Popular-to-rare ranks plus random ones; the very hottest objects
	// are left out only to keep the gate's aggregates cheap.
	rng := rand.New(rand.NewSource(seed + 2))
	for rank := 10; rank < w.objects; rank *= 2 {
		r.sample = append(r.sample, r.pop.rankToObj[rank], r.pop.rankToObj[rng.Intn(w.objects)])
	}
	if w.rounds {
		r.ingest = r.planIngest()
	}
	return r, nil
}

// replay runs the workload's generator for the run's duration.
func (r *runner) replay() error {
	t0 := time.Now()
	r.obs = &observations{t0: t0, written: map[rating.ObjectID]bool{}}
	err := r.w.drive(r, t0.Add(time.Duration(r.seconds*float64(time.Second))))
	r.obs.elapsed = time.Since(t0).Seconds()
	return err
}

// ---- closed-loop bulk ingest ----

// streamAll ingests rs over maxConns connections in chunks; the
// preparation path, untimed.
func streamAll(cl *client, rs []rating.Rating) error {
	const chunk = 4096
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for lo := c * chunk; lo < len(rs); lo += maxConns * chunk {
				part := rs[lo:min(lo+chunk, len(rs))]
				buf = appendNDJSON(buf[:0], part)
				if err := cl.stream(buf, len(part)); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunk is one prepared ingest request: its NDJSON body, its line
// count and those of its ratings the gate keeps.
type chunk struct {
	body []byte
	n    int
	kept []rating.Rating
}

// planIngest generates and encodes a round's requests, per connection,
// once and before anything is timed: every round sends the same
// ratings, and the generator's own work stays out of the measurement.
func (r *runner) planIngest() [][]chunk {
	keep := map[rating.ObjectID]bool{}
	for _, o := range r.sample {
		keep[o] = true
	}
	plan := make([][]chunk, maxConns)
	for c := range plan {
		g := r.pop.stream(r.seed+10+int64(c), ingestDaily/maxConns, 0)
		for sent := 0; sent < roundRatings/maxConns; sent += chunkLines {
			rs := g.take(chunkLines)
			ch := chunk{body: appendNDJSON(nil, rs), n: len(rs)}
			for _, rt := range rs {
				if keep[rt.Object] {
					ch.kept = append(ch.kept, rt)
				}
			}
			plan[c] = append(plan[c], ch)
		}
	}
	return plan
}

// driveIngest runs one closed-loop ingest client per connection until
// its share of the round is sent or the deadline passes: each sends its
// next chunk as soon as the last is acknowledged.
func driveIngest(r *runner, deadline time.Time) error {
	var wg sync.WaitGroup
	for _, chunks := range r.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for _, ch := range chunks {
				if !time.Now().Before(deadline) {
					return
				}
				h := r.tr.begin(lGen)
				sent := time.Now()
				err := r.cl.stream(ch.body, ch.n)
				done := time.Now()
				h.end()
				r.obs.record(opStream, sent.Sub(due), done.Sub(sent), float64(ch.n), err)
				due = done
				if err != nil {
					continue
				}
				r.obs.mu.Lock()
				r.obs.ackedCount += int64(ch.n)
				r.obs.acked = append(r.obs.acked, ch.kept...)
				r.obs.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return nil
}

// ---- closed-loop successive windows ----

// driveWindows processes successive windows from day 0 until the
// deadline. Past the end of the history it starts another pass from
// day 0, so the run measures for its whole duration however fast the
// windows go; the oracle replays the same sequence.
func driveWindows(r *runner, deadline time.Time) error {
	due := time.Now()
	perPass := int(math.Ceil(r.w.span / windowDays))
	for k := 0; time.Now().Before(deadline); k++ {
		start := float64(k%perPass) * windowDays
		h := r.tr.begin(lGen)
		sent := time.Now()
		resp, err := r.cl.process(start, start+windowDays)
		done := time.Now()
		h.end()
		r.obs.record(opWindow, sent.Sub(due), done.Sub(sent), 1, err)
		r.obs.windows = append(r.obs.windows, window{start: start, end: start + windowDays, resp: resp, ok: err == nil})
		due = done
	}
	if len(r.obs.windows) == 0 {
		return fmt.Errorf("no window ran")
	}
	return nil
}

// ---- open loop ----

type opKind uint8

const (
	opAggregate opKind = iota
	opTrust
	opSubmit
	opWindow
	opStream
)

var opNames = [...]string{opAggregate: "aggregate", opTrust: "trust", opSubmit: "submit", opWindow: "window", opStream: "stream"}

type op struct {
	due        time.Duration
	kind       opKind
	id         int
	rs         []rating.Rating
	start, end float64
}

// driveOpen dispatches ops on their schedule to maxConns senders and
// times each from its due time, so a stall counts against every
// request queued behind it. The dispatcher's own lag is the
// generator's lateness.
func (r *runner) driveOpen(ops []op, exec func(op) error) {
	// Sized to the whole schedule: the dispatcher must never block on
	// busy senders, or its lateness would measure the daemon.
	ch := make(chan int, len(ops))
	t0 := time.Now()
	lateness := make([]time.Duration, len(ops))
	go func() {
		for i, o := range ops {
			if d := time.Until(t0.Add(o.due)); d > 0 {
				time.Sleep(d)
			}
			lateness[i] = time.Since(t0) - o.due
			ch <- i
		}
		close(ch)
	}()
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idle := r.tr.begin(lIdle)
				i, ok := <-ch
				idle.end()
				if !ok {
					return
				}
				h := r.tr.begin(lGen)
				err := exec(ops[i])
				end := time.Since(t0)
				h.end()
				// The dispatcher wrote lateness[i] before sending i.
				r.obs.record(ops[i].kind, lateness[i], end-ops[i].due, 1, err)
			}
		}()
	}
	wg.Wait()
}

// serveMixedOps is the seeded schedule: Poisson arrivals at serveRate,
// ~80% aggregate reads and ~10% trust reads drawn by popularity from
// the history, ~10% unary submits of 1-16 fresh ratings, plus a window
// every windowEvery.
func (r *runner) serveMixedOps(seconds float64) []op {
	rng := rand.New(rand.NewSource(r.seed + 3))
	fresh := r.pop.stream(r.seed+4, 2000, r.w.span)
	var ops []op
	for t := rng.ExpFloat64() / serveRate; t < seconds; t += rng.ExpFloat64() / serveRate {
		o := op{due: time.Duration(t * float64(time.Second))}
		switch u := rng.Float64(); {
		case u < 0.8:
			o.kind, o.id = opAggregate, int(r.hist[rng.Intn(len(r.hist))].Object)
		case u < 0.9:
			o.kind, o.id = opTrust, int(r.hist[rng.Intn(len(r.hist))].Rater)
		default:
			o.kind, o.rs = opSubmit, fresh.take(1+rng.Intn(16))
		}
		ops = append(ops, o)
	}
	for k := 1; float64(k)*windowEvery.Seconds() < seconds; k++ {
		start := float64(k-1) * windowDays
		ops = append(ops, op{due: time.Duration(k) * windowEvery, kind: opWindow, start: start, end: start + windowDays})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

func driveServeMixed(r *runner, deadline time.Time) error {
	r.driveOpen(r.serveMixedOps(time.Until(deadline).Seconds()), func(o op) error {
		switch o.kind {
		case opAggregate:
			var resp api.AggregateResponse
			if err := r.cl.get("/v1/objects/"+strconv.Itoa(o.id)+"/aggregate", &resp); err != nil {
				return err
			}
			if resp.Object != o.id {
				return fmt.Errorf("aggregate for %d answered object %d", o.id, resp.Object)
			}
		case opTrust:
			var resp api.TrustResponse
			if err := r.cl.get("/v1/raters/"+strconv.Itoa(o.id)+"/trust", &resp); err != nil {
				return err
			}
			if resp.Rater != o.id || resp.Trust < 0 || resp.Trust > 1 {
				return fmt.Errorf("trust for %d: %+v", o.id, resp)
			}
		case opSubmit:
			if err := r.cl.submit(o.rs); err != nil {
				return err
			}
			r.obs.mu.Lock()
			r.obs.ackedCount += int64(len(o.rs))
			for _, rt := range o.rs {
				r.obs.written[rt.Object] = true
			}
			r.obs.mu.Unlock()
		case opWindow:
			resp, err := r.cl.process(o.start, o.end)
			r.obs.mu.Lock()
			r.obs.windows = append(r.obs.windows, window{start: o.start, end: o.end, resp: resp, ok: err == nil})
			r.obs.mu.Unlock()
			return err
		}
		return nil
	})
	return nil
}

// ---- statistics ----

// quantile interpolates linearly between order statistics (the
// "type 7" estimator), so a percentile moves smoothly with the data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
