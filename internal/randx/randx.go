// Package randx is the deterministic randomness substrate for the
// library. Every stochastic component — rating generators, attack
// models, Monte-Carlo experiment drivers — draws from an explicit
// *Rand so that every table and figure is reproducible from a seed.
//
// It wraps math/rand (stdlib only) and adds the distributions the paper
// needs: Gaussian ratings parameterized by variance, Poisson
// arrival-time processes, Bernoulli trials, discrete rating
// quantization, and sampling without replacement for recruiting
// collaborative raters.
package randx

import (
	"fmt"
	"math"
	"math/rand"
)

// Rand is a deterministic random source. It is not safe for concurrent
// use; create one per goroutine (Split derives independent streams).
type Rand struct {
	src *rand.Rand
}

// New returns a Rand seeded with seed.
func New(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Split derives a new, independently seeded stream from r. Experiments
// use one split per Monte-Carlo run so runs stay independent while the
// whole sweep remains a pure function of the top-level seed.
func (r *Rand) Split() *Rand {
	return New(r.src.Int63())
}

// Seeds pre-draws n stream seeds from r in index order — exactly the
// seeds a serial loop of n Split calls would consume. Fanning a
// Monte-Carlo sweep out over a worker pool with Seeds therefore
// reproduces the serial sweep bit for bit: item i runs on New(seeds[i])
// no matter which goroutine executes it or in what order.
func (r *Rand) Seeds(n int) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.src.Int63()
	}
	return out
}

// Derive maps (base seed, item index) to a stream seed without touching
// any shared stream state — the schedule-free alternative to Seeds for
// code that never had a serial draw order to preserve. It finalizes the
// pair with SplitMix64 so that neighboring indices land on statistically
// independent streams (see the cross-correlation test).
func Derive(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// DeriveRand returns a Rand on the stream Derive(base, index) selects.
func DeriveRand(base int64, index int) *Rand {
	return New(Derive(base, index))
}

// Float64 returns a uniform sample from [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, same
// as math/rand.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uniform returns a uniform sample from [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// NormalVar returns a Gaussian sample parameterized by variance, the
// convention the paper uses ("variance being 0.2"). Negative variance
// is treated as zero spread.
func (r *Rand) NormalVar(mean, variance float64) float64 {
	if variance <= 0 {
		return mean
	}
	return r.Normal(mean, math.Sqrt(variance))
}

// PoissonProcess returns event times of a homogeneous Poisson process
// with the given rate (events per unit time) over [start, end), in
// increasing order. A non-positive rate or empty interval yields no
// events.
func (r *Rand) PoissonProcess(rate, start, end float64) []float64 {
	if rate <= 0 || end <= start {
		return nil
	}
	var times []float64
	t := start
	for {
		// Exponential inter-arrival gap.
		t += -math.Log(1-r.src.Float64()) / rate
		if t >= end {
			return times
		}
		times = append(times, t)
	}
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly
// from [0, n). It returns all n when k >= n, and nil when k <= 0.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	return r.src.Perm(n)[:k]
}

// Shuffle randomly permutes the first n elements using swap, mirroring
// math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Quantize maps v onto one of `levels` equally spaced rating scores and
// clamps to the scale. The paper's scales are either
//
//	11 levels: 0, 0.1, ..., 1.0   (zeroBased = true,  §III.A.2)
//	10 levels: 0.1, 0.2, ..., 1.0 (zeroBased = false, §IV.A)
//
// With zeroBased, the scores are i/(levels-1) for i in [0, levels-1];
// without, they are i/levels for i in [1, levels].
func Quantize(v float64, levels int, zeroBased bool) float64 {
	if levels < 2 {
		panic(fmt.Sprintf("randx: Quantize with %d levels", levels))
	}
	if zeroBased {
		steps := float64(levels - 1)
		i := math.Round(clamp01(v) * steps)
		return i / steps
	}
	steps := float64(levels)
	i := math.Round(clamp01(v) * steps)
	if i < 1 {
		i = 1
	}
	return i / steps
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
