package stat

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{false, false, true, true}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("AUC = %g, want 1", got)
	}
	// Inverting the separation either way drops the area to 0.
	t.Run("flipped_labels", func(t *testing.T) {
		inverted := []bool{true, true, false, false}
		if got := AUC(scores, inverted); got != 0 {
			t.Fatalf("inverted AUC = %g, want 0", got)
		}
	})
	t.Run("negated_scores", func(t *testing.T) {
		negated := make([]float64, len(scores))
		for i, s := range scores {
			negated[i] = -s
		}
		if got := AUC(negated, labels); got != 0 {
			t.Fatalf("negated AUC = %g, want 0", got)
		}
	})
}

func TestAUCAllTied(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels []bool
	}{
		{"balanced", []bool{true, false, true, false}},
		{"unbalanced", []bool{true, true, true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scores := make([]float64, len(tc.labels))
			for i := range scores {
				scores[i] = 0.5
			}
			if got := AUC(scores, tc.labels); got != 0.5 {
				t.Fatalf("all-tied AUC = %g, want 0.5", got)
			}
		})
	}
}

// With one class missing, or scores and labels of different lengths,
// there are no pairs to rank and the statistic reports chance.
func TestAUCDegenerateClasses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scores []float64
		labels []bool
	}{
		{"no_negatives", []float64{1, 2}, []bool{true, true}},
		{"no_positives", []float64{1, 2}, []bool{false, false}},
		{"single_positive", []float64{1}, []bool{true}},
		{"empty", nil, nil},
		{"mismatched_lengths", []float64{1}, []bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := AUC(tc.scores, tc.labels); got != 0.5 {
				t.Fatalf("AUC = %g, want 0.5", got)
			}
		})
	}
}

func TestAUCHandComputed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scores []float64
		labels []bool
	}{
		// Positives {0.9, 0.4}, negatives {0.6, 0.2}: pairs won =
		// (0.9>0.6), (0.9>0.2), (0.4>0.2) = 3 of 4.
		{"distinct_scores", []float64{0.9, 0.4, 0.6, 0.2}, []bool{true, true, false, false}},
		// A tie across classes counts half: positive {0.5}, negatives
		// {0.5, 0.3} -> (tie = 0.5) + (win = 1) over 2 pairs = 0.75.
		{"cross_class_tie", []float64{0.5, 0.5, 0.3}, []bool{true, false, false}},
		// Integer scores: positives {3, 1}, negatives {2, 0} win 3 of 4.
		{"integer_scores", []float64{3, 1, 2, 0}, []bool{true, true, false, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := AUC(tc.scores, tc.labels); got != 0.75 {
				t.Fatalf("AUC = %g, want 0.75", got)
			}
		})
	}
}

// The statistic depends only on the ranks: it stays in [0, 1] and
// does not move when the inputs are reordered or the scores pass
// through a strictly monotone transform, and it complements under
// negation. Seeded random inputs join the fixed one; even seeds
// quantize their scores so tie groups are exercised too.
func TestAUCOrderInvariant(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		checkAUCInvariants(t, 0,
			[]float64{0.9, 0.4, 0.6, 0.2, 0.5, 0.5},
			[]bool{true, true, false, false, true, false})
	})
	t.Run("seeded", func(t *testing.T) {
		for seed := int64(1); seed <= 120; seed++ {
			rng := randx.New(seed)
			n := 4 + rng.Intn(60)
			scores := make([]float64, n)
			labels := make([]bool, n)
			for i := range scores {
				if seed%2 == 0 {
					scores[i] = float64(rng.Intn(6))
				} else {
					scores[i] = rng.Normal(0, 1)
				}
				labels[i] = rng.Bernoulli(0.5)
			}
			checkAUCInvariants(t, seed, scores, labels)
		}
	})
}

func checkAUCInvariants(t *testing.T, seed int64, scores []float64, labels []bool) {
	t.Helper()
	want := AUC(scores, labels)
	if want < 0 || want > 1 {
		t.Fatalf("seed %d: AUC %g outside [0, 1]", seed, want)
	}
	n := len(scores)
	rs := make([]float64, n)
	rl := make([]bool, n)
	exp := make([]float64, n)
	neg := make([]float64, n)
	for i, s := range scores {
		// Reverse scores and labels in lockstep.
		rs[i], rl[i] = scores[n-1-i], labels[n-1-i]
		exp[i], neg[i] = math.Exp(s), -s
	}
	if got := AUC(rs, rl); got != want {
		t.Fatalf("seed %d: reversed AUC = %g, want %g", seed, got, want)
	}
	if got := AUC(exp, labels); math.Abs(got-want) > 1e-9 {
		t.Fatalf("seed %d: exp-transformed AUC = %g, want %g", seed, got, want)
	}
	if got := AUC(neg, labels); math.Abs(got+want-1) > 1e-9 {
		t.Fatalf("seed %d: negated AUC = %g, want %g", seed, got, 1-want)
	}
}
