// Package filter implements rating filters: algorithms that split a
// batch of raw ratings into "normal" and "abnormal" before aggregation
// (the Feature Extraction I + Rating Filter path of Fig 1).
//
// The paper's system uses the Beta-function filter of Whitby, Jøsang
// and Indulska [4] with sensitivity 0.1 (§IV.A); the quantile, entropy
// [5] and endorsement [2] filters are the related-work baselines that
// the evaluation contrasts against. All of them embody the majority
// rule, which is exactly what the smart type-2 attack circumvents —
// reproducing that failure is part of reproducing the paper.
package filter

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/rating"
	"repro/internal/stat"
)

// Result partitions a batch of ratings.
type Result struct {
	// Accepted are the ratings that passed, in input order.
	Accepted []rating.Rating
	// Rejected are the ratings filtered out as abnormal, in input order.
	Rejected []rating.Rating
}

// Filter is a rating filter.
type Filter interface {
	// Name identifies the filter in reports and benchmarks.
	Name() string
	// Apply partitions rs. Implementations must not mutate rs.
	Apply(rs []rating.Rating) (Result, error)
}

// Noop accepts everything; the "no filtering technique is used"
// configuration of §III.B.2.
type Noop struct{}

var _ Filter = Noop{}

// Name implements Filter.
func (Noop) Name() string { return "noop" }

// Apply implements Filter.
func (Noop) Apply(rs []rating.Rating) (Result, error) {
	return Result{Accepted: append([]rating.Rating(nil), rs...)}, nil
}

// Beta is the Whitby-Jøsang-Indulska statistical filter for
// Beta-reputation systems [4]. Each rating r induces an individual
// opinion Beta(1+r, 1+(1−r)); a rating is judged unfair when the
// majority's mean falls outside the [q, 1−q] quantile band of that
// individual distribution — i.e. when the rater's opinion effectively
// excludes the majority. Excluded ratings are removed and the majority
// re-estimated until a fixed point. Because each individual Beta is
// wide, only ratings far from the majority get caught, which is exactly
// the weakness against moderate-bias collusion the paper exploits.
//
// A rating's band depends only on (q, value), and ratings come on a
// few levels, so Apply computes each distinct value's band once per
// call and keeps bands across calls in a bounded process-wide memo.
type Beta struct {
	// Q is the sensitivity parameter (the paper runs 0.1). Larger is
	// more aggressive. Must lie in (0, 0.5).
	Q float64
	// MaxIter bounds the exclude-refit loop; 0 means 20.
	MaxIter int
	// MinKeep stops the filter from emptying the batch; 0 means 2.
	MinKeep int
}

var _ Filter = Beta{}

// Name implements Filter.
func (Beta) Name() string { return "beta" }

// Apply implements Filter.
func (f Beta) Apply(rs []rating.Rating) (Result, error) {
	return f.apply(rs, &sharedBands)
}

// apply is Apply with its cross-call band memo passed in, so a test
// can watch a memo of its own.
func (f Beta) apply(rs []rating.Rating, memo *bandMemo) (Result, error) {
	if f.Q <= 0 || f.Q >= 0.5 {
		return Result{}, fmt.Errorf("filter: beta sensitivity q=%g outside (0,0.5)", f.Q)
	}
	maxIter := f.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	minKeep := f.MinKeep
	if minKeep <= 0 {
		minKeep = 2
	}
	if len(rs) == 0 {
		return Result{}, nil
	}

	accepted := make([]bool, len(rs))
	for i := range accepted {
		accepted[i] = true
	}
	nAccepted := len(rs)
	// bands holds this call's band per value bits, so each distinct
	// value reaches memo once however many refits run.
	bands := make(map[uint64]band)

	for iter := 0; iter < maxIter; iter++ {
		if nAccepted <= minKeep {
			break
		}
		// Majority opinion: mean of Beta(1+Σr, 1+Σ(1−r)) over accepted.
		alpha, beta := 1.0, 1.0
		for i, r := range rs {
			if accepted[i] {
				alpha += r.Value
				beta += 1 - r.Value
			}
		}
		majority := mathx.BetaMean(alpha, beta)

		changed := false
		for i, r := range rs {
			if !accepted[i] {
				continue
			}
			key := math.Float64bits(r.Value)
			b, ok := bands[key]
			if !ok {
				var err error
				if b, err = memo.band(f.Q, r.Value); err != nil {
					return Result{}, err
				}
				bands[key] = b
			}
			if majority < b.lo || majority > b.hi {
				accepted[i] = false
				nAccepted--
				changed = true
				if nAccepted <= minKeep {
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return partition(rs, accepted), nil
}

// band is the [q, 1−q] quantile band of the individual opinion
// Beta(1+r, 2−r) that one rating value r induces.
type band struct{ lo, hi float64 }

// bandMemoCap bounds a bandMemo. Past it the memo stops inserting
// rather than evicting, so arbitrary client floats cannot churn it.
const bandMemoCap = 4096

// sharedBands is the process-wide memo behind Beta.Apply.
var sharedBands bandMemo

// bandMemo keeps computed bands across Apply calls, keyed by the bits
// of (q, r). A band is a pure function of (q, r), so a hit returns
// exactly what BetaQuantile would; errors are never stored. The zero
// value is ready to use.
type bandMemo struct {
	mu sync.RWMutex
	m  map[[2]uint64]band
}

// band returns value v's band at sensitivity q, from the memo when it
// has it.
func (m *bandMemo) band(q, v float64) (band, error) {
	key := [2]uint64{math.Float64bits(q), math.Float64bits(v)}
	m.mu.RLock()
	b, ok := m.m[key]
	m.mu.RUnlock()
	if ok {
		return b, nil
	}
	lo, err := mathx.BetaQuantile(q, 1+v, 2-v)
	if err != nil {
		return band{}, fmt.Errorf("filter: beta lower quantile: %w", err)
	}
	hi, err := mathx.BetaQuantile(1-q, 1+v, 2-v)
	if err != nil {
		return band{}, fmt.Errorf("filter: beta upper quantile: %w", err)
	}
	b = band{lo: lo, hi: hi}
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[[2]uint64]band)
	}
	if len(m.m) < bandMemoCap {
		m.m[key] = b
	}
	m.mu.Unlock()
	return b, nil
}

// Quantile rejects ratings outside the empirical [q, 1−q] quantile band
// of the batch itself — the crudest robust filter, used as a baseline.
type Quantile struct {
	// Q is the tail mass trimmed on each side; must lie in (0, 0.5).
	Q float64
}

var _ Filter = Quantile{}

// Name implements Filter.
func (Quantile) Name() string { return "quantile" }

// Apply implements Filter.
func (f Quantile) Apply(rs []rating.Rating) (Result, error) {
	if f.Q <= 0 || f.Q >= 0.5 {
		return Result{}, fmt.Errorf("filter: quantile q=%g outside (0,0.5)", f.Q)
	}
	if len(rs) == 0 {
		return Result{}, nil
	}
	values := rating.Values(rs)
	lo, err := stat.Quantile(values, f.Q)
	if err != nil {
		return Result{}, err
	}
	hi, err := stat.Quantile(values, 1-f.Q)
	if err != nil {
		return Result{}, err
	}
	accepted := make([]bool, len(rs))
	for i, r := range rs {
		accepted[i] = r.Value >= lo && r.Value <= hi
	}
	return partition(rs, accepted), nil
}

// Entropy is the sequential entropy filter of Weng, Miao and Goh [5]:
// a new rating that increases the uncertainty (Shannon entropy) of the
// rating distribution by more than Threshold bits is flagged unfair.
// Ratings are processed in input (time) order.
type Entropy struct {
	// Levels is the number of histogram bins over [0, 1]; 0 means 11.
	Levels int
	// Threshold is the entropy-increase cutoff in bits; 0 means 0.05.
	Threshold float64
	// MinSamples is how many ratings seed the distribution before the
	// test activates; 0 means 10.
	MinSamples int
}

var _ Filter = Entropy{}

// Name implements Filter.
func (Entropy) Name() string { return "entropy" }

// Apply implements Filter.
func (f Entropy) Apply(rs []rating.Rating) (Result, error) {
	levels := f.Levels
	if levels <= 0 {
		levels = 11
	}
	threshold := f.Threshold
	if threshold <= 0 {
		threshold = 0.05
	}
	minSamples := f.MinSamples
	if minSamples <= 0 {
		minSamples = 10
	}
	hist, err := stat.NewHistogram(0, 1, levels)
	if err != nil {
		return Result{}, err
	}
	accepted := make([]bool, len(rs))
	for i, r := range rs {
		if hist.Total() < minSamples {
			accepted[i] = true
			hist.Add(r.Value)
			continue
		}
		before := hist.Entropy()
		hist.Add(r.Value)
		after := hist.Entropy()
		if after-before > threshold {
			accepted[i] = false
			hist.Remove(r.Value)
			continue
		}
		accepted[i] = true
	}
	return partition(rs, accepted), nil
}

// Endorsement is the Chen-Singh style quality estimator [2]: each
// rating is endorsed by every other rating in proportion to their
// agreement, and ratings whose normalized endorsement falls below
// Threshold are rejected.
type Endorsement struct {
	// Bandwidth is the disagreement distance at which endorsement
	// reaches zero; 0 means 0.3.
	Bandwidth float64
	// Threshold is the minimum normalized endorsement in [0, 1];
	// 0 means 0.2.
	Threshold float64
}

var _ Filter = Endorsement{}

// Name implements Filter.
func (Endorsement) Name() string { return "endorsement" }

// Apply implements Filter.
func (f Endorsement) Apply(rs []rating.Rating) (Result, error) {
	bandwidth := f.Bandwidth
	if bandwidth <= 0 {
		bandwidth = 0.3
	}
	threshold := f.Threshold
	if threshold <= 0 {
		threshold = 0.2
	}
	n := len(rs)
	if n < 2 {
		// A single rating has no endorsers; accept it.
		return Result{Accepted: append([]rating.Rating(nil), rs...)}, nil
	}
	accepted := make([]bool, n)
	for i := range rs {
		var quality float64
		for j := range rs {
			if i == j {
				continue
			}
			d := rs[i].Value - rs[j].Value
			if d < 0 {
				d = -d
			}
			if d < bandwidth {
				quality += 1 - d/bandwidth
			}
		}
		accepted[i] = quality/float64(n-1) >= threshold
	}
	return partition(rs, accepted), nil
}

// partition splits rs by accepted, sizing each side once. An empty
// side stays nil, as reports carry these slices.
func partition(rs []rating.Rating, accepted []bool) Result {
	n := 0
	for i := range rs {
		if accepted[i] {
			n++
		}
	}
	var out Result
	if n > 0 {
		out.Accepted = make([]rating.Rating, 0, n)
	}
	if n < len(rs) {
		out.Rejected = make([]rating.Rating, 0, len(rs)-n)
	}
	for i, r := range rs {
		if accepted[i] {
			out.Accepted = append(out.Accepted, r)
		} else {
			out.Rejected = append(out.Rejected, r)
		}
	}
	return out
}
