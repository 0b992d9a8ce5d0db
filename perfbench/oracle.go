package main

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
)

// The correctness gates. Every run checks the daemon's answers against
// what the generated inputs imply; ingest and window replay the same
// inputs through the single-threaded core.System oracle.

func newOracle(rs ...[]rating.Rating) (*core.System, error) {
	sys, err := core.NewSystem(daemonConfig(nil))
	if err != nil {
		return nil, err
	}
	for _, part := range rs {
		if err := sys.SubmitAll(part); err != nil {
			return nil, fmt.Errorf("oracle submit: %w", err)
		}
	}
	return sys, nil
}

func checkCount(cl *client, want int) error {
	st, err := cl.stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Ratings != want {
		return fmt.Errorf("daemon holds %d ratings, %d were acknowledged", st.Ratings, want)
	}
	return nil
}

func aggregateWire(a core.AggregateResult) api.AggregateResponse {
	return api.AggregateResponse{Object: int(a.Object), Value: a.Value, Used: a.Used, Filtered: a.Filtered, FellBack: a.FellBack}
}

// verifyIngest: the acked count equals the stored count, and sampled
// objects' aggregates match an oracle fed their acked ratings. With no
// window processed every rater holds the initial trust, so an object's
// aggregate depends on its own ratings alone.
func verifyIngest(r *runner) error {
	if err := checkCount(r.cl, int(r.obs.ackedCount)); err != nil {
		return err
	}
	oracle, err := newOracle(r.obs.acked)
	if err != nil {
		return err
	}
	for _, obj := range r.sample {
		want, werr := oracle.Aggregate(obj)
		var got api.AggregateResponse
		gerr := r.cl.get("/v1/objects/"+strconv.Itoa(int(obj))+"/aggregate", &got)
		if errors.Is(werr, rating.ErrUnknownObject) {
			var st *errStatus
			if errors.As(gerr, &st) && st.status == 404 {
				continue
			}
			return fmt.Errorf("object %d: oracle has no ratings, daemon answered %v", obj, gerr)
		}
		if werr != nil || gerr != nil {
			return fmt.Errorf("object %d: oracle %v, daemon %v", obj, werr, gerr)
		}
		if got != aggregateWire(want) {
			return fmt.Errorf("object %d aggregate %+v, oracle %+v", obj, got, aggregateWire(want))
		}
	}
	return nil
}

// verifyServeMixed: every acknowledged rating is stored and every
// written object is readable.
func verifyServeMixed(r *runner) error {
	if err := checkCount(r.cl, len(r.hist)+int(r.obs.ackedCount)); err != nil {
		return err
	}
	for obj := range r.obs.written {
		var got api.AggregateResponse
		if err := r.cl.get("/v1/objects/"+strconv.Itoa(int(obj))+"/aggregate", &got); err != nil {
			return fmt.Errorf("written object %d unreadable: %w", obj, err)
		}
	}
	return nil
}

func processWire(rep core.ProcessReport) api.ProcessResponse {
	resp := api.ProcessResponse{
		Objects:      len(rep.Objects),
		Observations: len(rep.Observations),
		Degraded:     len(rep.DegradedObjects()),
	}
	for _, obj := range rep.Objects {
		resp.Suspicious += len(obj.Detection.SuspiciousWindows())
	}
	return resp
}

// verifyWindows: replaying the history and the same windows through
// the oracle gives the same per-window summaries,
// the same malicious set and bit-identical trust for every colluder
// and a sample of honest raters.
func verifyWindows(r *runner) error {
	oracle, err := newOracle(r.hist)
	if err != nil {
		return err
	}
	if err := checkCount(r.cl, oracle.Len()); err != nil {
		return err
	}
	for _, w := range r.obs.windows {
		rep, err := oracle.ProcessWindow(w.start, w.end)
		if err != nil {
			return fmt.Errorf("oracle window [%g,%g): %w", w.start, w.end, err)
		}
		if !w.ok {
			return fmt.Errorf("window [%g,%g) failed", w.start, w.end)
		}
		if want := processWire(rep); w.resp != want {
			return fmt.Errorf("window [%g,%g): daemon %+v, oracle %+v", w.start, w.end, w.resp, want)
		}
	}
	var mal api.MaliciousResponse
	if err := r.cl.get("/v1/malicious", &mal); err != nil {
		return fmt.Errorf("malicious: %w", err)
	}
	want := []int{}
	for _, id := range oracle.MaliciousRaters() {
		want = append(want, int(id))
	}
	if !reflect.DeepEqual(mal.Raters, want) {
		return fmt.Errorf("malicious set: daemon %d raters, oracle %d", len(mal.Raters), len(want))
	}
	for _, id := range r.trustSample() {
		var got api.TrustResponse
		if err := r.cl.get("/v1/raters/"+strconv.Itoa(int(id))+"/trust", &got); err != nil {
			return fmt.Errorf("trust %d: %w", id, err)
		}
		if w := oracle.TrustIn(id); got.Trust != w {
			return fmt.Errorf("trust of rater %d: daemon %.17g, oracle %.17g", id, got.Trust, w)
		}
	}
	return nil
}

// trustSample is the trust fingerprint's rater set: every colluder
// plus every 97th honest rater seen in the history.
func (r *runner) trustSample() []rating.RaterID {
	seen := map[rating.RaterID]bool{}
	var ids []rating.RaterID
	for _, rt := range r.hist {
		if seen[rt.Rater] {
			continue
		}
		seen[rt.Rater] = true
		if rt.Rater >= firstColluder || rt.Rater%97 == 0 {
			ids = append(ids, rt.Rater)
		}
	}
	return ids
}
