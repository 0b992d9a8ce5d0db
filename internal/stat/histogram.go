package stat

import (
	"fmt"
	"math"
)

// Histogram counts samples into equal-width bins over [Lo, Hi]. It
// backs Fig 3 (rating histograms) and the entropy-based baseline
// filter, which measures the uncertainty of the rating distribution.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins spanning
// [lo, hi]. It returns an error when the range is empty or bins < 1.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stat: histogram with %d bins", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stat: histogram range [%g,%g] empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one sample. Samples outside [Lo, Hi] are clamped into the
// edge bins, matching how rating scales clamp scores.
func (h *Histogram) Add(v float64) {
	h.Counts[h.binOf(v)]++
	h.total++
}

// Remove un-records one sample previously added; used by the sequential
// entropy filter to test "distribution without this rating". Removing a
// value that was never added corrupts the histogram; callers own that
// invariant.
func (h *Histogram) Remove(v float64) {
	b := h.binOf(v)
	h.Counts[b]--
	h.total--
}

func (h *Histogram) binOf(v float64) int {
	if v <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return len(h.Counts) - 1
	}
	b := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// Probabilities returns the normalized bin frequencies. All-zero when
// the histogram is empty.
func (h *Histogram) Probabilities() []float64 {
	p := make([]float64, len(h.Counts))
	if h.total == 0 {
		return p
	}
	for i, c := range h.Counts {
		p[i] = float64(c) / float64(h.total)
	}
	return p
}

// Entropy returns the Shannon entropy (bits) of the bin distribution.
// An empty histogram has zero entropy.
func (h *Histogram) Entropy() float64 {
	return EntropyBits(h.Probabilities())
}

// EntropyBits returns the Shannon entropy in bits of a probability
// vector. Zero entries contribute nothing; the vector need not be
// exactly normalized (it is treated as weights).
func EntropyBits(p []float64) float64 {
	var total float64
	for _, v := range p {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	var hEnt float64
	for _, v := range p {
		if v <= 0 {
			continue
		}
		q := v / total
		hEnt -= q * math.Log2(q)
	}
	return hEnt
}

// BinaryEntropy returns H(p) = -p log2 p - (1-p) log2 (1-p), the binary
// entropy function used by the entropy trust model of [8].
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
