package stat

import (
	"math"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("0 bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 0.05, 0.15, 0.95, 1.0} {
		h.Add(v)
	}
	if h.Counts[0] != 2 {
		t.Fatalf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 {
		t.Fatalf("bin 1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[9] != 2 {
		t.Fatalf("bin 9 = %d, want 2", h.Counts[9])
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	h.Add(-3)
	h.Add(7)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
}

func TestHistogramRemove(t *testing.T) {
	h, _ := NewHistogram(0, 1, 5)
	h.Add(0.3)
	h.Add(0.3)
	h.Remove(0.3)
	if h.Counts[1] != 1 || h.Total() != 1 {
		t.Fatalf("after remove: counts=%v total=%d", h.Counts, h.Total())
	}
}

func TestHistogramProbabilities(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	if p := h.Probabilities(); p[0] != 0 || p[1] != 0 {
		t.Fatalf("empty probabilities = %v", p)
	}
	for _, v := range []float64{0.1, 0.2, 0.9, 0.8} {
		h.Add(v)
	}
	p := h.Probabilities()
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("probabilities = %v", p)
	}
}

func TestHistogramEntropy(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	if h.Entropy() != 0 {
		t.Fatal("empty histogram entropy != 0")
	}
	// All mass in one bin: zero entropy.
	h.Add(0.1)
	h.Add(0.1)
	if h.Entropy() != 0 {
		t.Fatalf("point-mass entropy = %g", h.Entropy())
	}
	// Uniform over 4 bins: 2 bits.
	h2, _ := NewHistogram(0, 1, 4)
	for _, v := range []float64{0.1, 0.3, 0.6, 0.9} {
		h2.Add(v)
	}
	if math.Abs(h2.Entropy()-2) > 1e-12 {
		t.Fatalf("uniform entropy = %g, want 2", h2.Entropy())
	}
}

func TestEntropyBits(t *testing.T) {
	if got := EntropyBits([]float64{0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("H(0.5,0.5) = %g, want 1", got)
	}
	if got := EntropyBits([]float64{1, 0}); got != 0 {
		t.Fatalf("H(1,0) = %g", got)
	}
	if got := EntropyBits(nil); got != 0 {
		t.Fatalf("H() = %g", got)
	}
	// Unnormalized weights behave like their normalization.
	a := EntropyBits([]float64{2, 2, 4})
	b := EntropyBits([]float64{0.25, 0.25, 0.5})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("weights %g vs normalized %g", a, b)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("H(0.5) = %g", got)
	}
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Fatal("H at edges != 0")
	}
	// Symmetry.
	if math.Abs(BinaryEntropy(0.3)-BinaryEntropy(0.7)) > 1e-12 {
		t.Fatal("binary entropy not symmetric")
	}
}
