package netflix

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stat"
)

const sample = `1:
1488844,3,2005-09-06
822109,5,2005-05-13
885013,4,2005-10-19
30878,4,2005-12-26
823519,3,2004-05-03
`

func TestParseMovie(t *testing.T) {
	m, err := ParseMovie(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 1 {
		t.Fatalf("id = %d", m.ID)
	}
	if len(m.Ratings) != 5 {
		t.Fatalf("%d ratings", len(m.Ratings))
	}
	// Earliest date (2004-05-03) is day 0.
	if m.Ratings[0].Time != 0 || m.Ratings[0].Rater != 823519 {
		t.Fatalf("first rating = %+v", m.Ratings[0])
	}
	if m.Ratings[0].Value != 3.0/5 {
		t.Fatalf("value = %g", m.Ratings[0].Value)
	}
	for i := 1; i < len(m.Ratings); i++ {
		if m.Ratings[i].Time < m.Ratings[i-1].Time {
			t.Fatal("not time-sorted")
		}
	}
	// 2005-05-13 is 375 days after 2004-05-03.
	if math.Abs(m.Ratings[1].Time-375) > 1e-9 {
		t.Fatalf("second time = %g, want 375", m.Ratings[1].Time)
	}
	if m.Span() != m.Ratings[4].Time {
		t.Fatal("span mismatch")
	}
}

func TestParseMovieErrors(t *testing.T) {
	cases := []string{
		"",                         // empty
		"abc\n",                    // no colon
		"x:\n",                     // bad id
		"1:\n1,2\n",                // too few fields
		"1:\nx,3,2005-01-01\n",     // bad customer
		"1:\n5,9,2005-01-01\n",     // stars out of range
		"1:\n5,three,2005-01-01\n", // non-numeric stars
		"1:\n5,3,01/02/2005\n",     // bad date
	}
	for i, c := range cases {
		if _, err := ParseMovie(strings.NewReader(c)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestParseMovieEmptyBody(t *testing.T) {
	m, err := ParseMovie(strings.NewReader("7:\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 7 || len(m.Ratings) != 0 || m.Span() != 0 {
		t.Fatalf("movie = %+v", m)
	}
}

func TestParseMovieSkipsBlankLines(t *testing.T) {
	m, err := ParseMovie(strings.NewReader("1:\n\n822109,5,2005-05-13\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ratings) != 1 {
		t.Fatalf("%d ratings", len(m.Ratings))
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	m, err := ParseMovie(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2004, 5, 3, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	if err := FormatMovie(&buf, m, epoch); err != nil {
		t.Fatal(err)
	}
	again, err := ParseMovie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Ratings) != len(m.Ratings) {
		t.Fatalf("round trip lost ratings: %d vs %d", len(again.Ratings), len(m.Ratings))
	}
	for i := range m.Ratings {
		if m.Ratings[i] != again.Ratings[i] {
			t.Fatalf("rating %d: %+v vs %+v", i, m.Ratings[i], again.Ratings[i])
		}
	}
}

func TestSyntheticParamsValidate(t *testing.T) {
	if err := (SyntheticParams{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []SyntheticParams{
		{Days: -1},
		{BaseRate: -2},
		{MeanStart: 1.5},
		{StarSigma: -1},
		{VolumeWalkSigma: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestGenerateSynthetic(t *testing.T) {
	m, err := GenerateSynthetic(randx.New(1), SyntheticParams{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 1 || m.Title == "" {
		t.Fatalf("movie meta = %+v", m)
	}
	// ~4/day * 700 days, modulated: expect a few thousand.
	if len(m.Ratings) < 1000 || len(m.Ratings) > 10000 {
		t.Fatalf("%d ratings", len(m.Ratings))
	}
	stars := make(map[float64]bool)
	for i, r := range m.Ratings {
		if i > 0 && r.Time < m.Ratings[i-1].Time {
			t.Fatal("not time-sorted")
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		stars[r.Value] = true
		if r.Value < 0.2-1e-9 {
			t.Fatalf("value %g below 1 star", r.Value)
		}
	}
	if len(stars) != 5 {
		t.Fatalf("star values seen: %v, want all 5", stars)
	}
	// Mean near the configured drift band.
	mean := stat.Mean(ratingValues(m))
	if mean < 0.55 || mean < 0.5 || mean > 0.75 {
		t.Fatalf("mean %g outside drift band", mean)
	}
}

func ratingValues(m *Movie) []float64 {
	out := make([]float64, len(m.Ratings))
	for i, r := range m.Ratings {
		out[i] = r.Value
	}
	return out
}

func TestGenerateSyntheticNonstationaryVolume(t *testing.T) {
	m, err := GenerateSynthetic(randx.New(3), SyntheticParams{})
	if err != nil {
		t.Fatal(err)
	}
	// Daily volumes must vary beyond Poisson noise: compare the busiest
	// and quietest 50-day halves.
	counts := make([]float64, 700)
	for _, r := range m.Ratings {
		counts[int(r.Time)]++
	}
	sums := windowSums(counts, 50)
	minV, maxV := slices.Min(sums), slices.Max(sums)
	if maxV < 1.5*minV {
		t.Fatalf("volume too flat: min %g max %g per 50 days", minV, maxV)
	}
}

func windowSums(xs []float64, w int) []float64 {
	var out []float64
	for i := 0; i+w <= len(xs); i += w {
		var s float64
		for _, v := range xs[i : i+w] {
			s += v
		}
		out = append(out, s)
	}
	return out
}

func TestDefaultAttackValid(t *testing.T) {
	if err := DefaultAttack().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AttackParams{
		{AStart: 10, AEnd: 5},
		{RecruitPower1: 2},
		{RecruitPower2: -1},
		{BadVarScale: -1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad attack %d accepted", i)
		}
	}
}

func TestInsertCollaborative(t *testing.T) {
	rng := randx.New(5)
	m, err := GenerateSynthetic(rng, SyntheticParams{})
	if err != nil {
		t.Fatal(err)
	}
	origLen := len(m.Ratings)
	a := DefaultAttack()
	ls, err := InsertCollaborative(rng, m, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ratings) != origLen {
		t.Fatal("InsertCollaborative mutated the movie")
	}
	if len(ls) <= origLen {
		t.Fatalf("no type-2 ratings added: %d vs %d", len(ls), origLen)
	}
	var type1, type2 int
	for i, l := range ls {
		if i > 0 && l.Rating.Time < ls[i-1].Rating.Time {
			t.Fatal("not time-sorted")
		}
		if l.Unfair && (l.Rating.Time < a.AStart || l.Rating.Time > a.AEnd) {
			t.Fatalf("unfair rating outside attack interval: %+v", l)
		}
		switch l.Class {
		case sim.Type1Collaborative:
			type1++
		case sim.Type2Collaborative:
			type2++
			if l.Rating.Rater < 10_000_000 {
				t.Fatal("type-2 rater not in reserved range")
			}
		}
	}
	if type1 == 0 || type2 == 0 {
		t.Fatalf("type1=%d type2=%d", type1, type2)
	}
	// Roughly half the in-window originals become type-1 at power 0.5.
	var inWindow int
	for _, r := range m.Ratings {
		if r.Time >= a.AStart && r.Time <= a.AEnd {
			inWindow++
		}
	}
	frac := float64(type1) / float64(inWindow)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("type-1 fraction %g, want near 0.5", frac)
	}
}

// Property: insertion only adds/bends ratings inside the window and
// never invalidates a rating.
func TestInsertCollaborativeInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		m, err := GenerateSynthetic(rng, SyntheticParams{Days: 120, BaseRate: 3})
		if err != nil {
			return false
		}
		a := AttackParams{
			AStart:        30,
			AEnd:          60,
			BiasShift1:    rng.Uniform(0, 0.3),
			RecruitPower1: rng.Float64(),
			BiasShift2:    rng.Uniform(0, 0.3),
			RecruitPower2: rng.Uniform(0, 2),
			BadVarScale:   rng.Float64(),
		}
		ls, err := InsertCollaborative(rng, m, a)
		if err != nil {
			return false
		}
		if len(ls) < len(m.Ratings) {
			return false
		}
		for _, l := range ls {
			if l.Rating.Validate() != nil {
				return false
			}
			if l.Unfair && (l.Rating.Time < a.AStart || l.Rating.Time > a.AEnd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
