package detector

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/rating"
)

func TestWhitenessConfigValidate(t *testing.T) {
	if err := (WhitenessConfig{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []WhitenessConfig{
		{Lags: -1},
		{Alpha: 1},
		{Alpha: -0.5},
		{Alpha: math.NaN()},
		{Config: Config{Size: -1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDetectWhitenessOnWhiteNoise(t *testing.T) {
	// Honest-like iid ratings: at alpha = 0.05, about 5% of windows
	// should be flagged. Over many windows, require < 15%.
	rng := randx.New(1)
	var rs []rating.Rating
	for i := 0; i < 2000; i++ {
		rs = append(rs, rating.Rating{
			Rater: rating.RaterID(i),
			Value: randx.Quantize(rng.NormalVar(0.7, 0.04), 11, true),
			Time:  float64(i),
		})
	}
	rep, err := DetectWhiteness(rs, WhitenessConfig{
		Config: Config{Mode: WindowByCount, Size: 100, Step: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	fitted, flagged := 0, 0
	for _, w := range rep.Windows {
		if w.Fitted {
			fitted++
			if w.Suspicious {
				flagged++
			}
		}
	}
	if fitted == 0 {
		t.Fatal("no windows fitted")
	}
	if rate := float64(flagged) / float64(fitted); rate > 0.15 {
		t.Fatalf("white-noise flag rate %.2f", rate)
	}
}

func TestDetectWhitenessOnCorrelatedSeries(t *testing.T) {
	// A strongly autocorrelated rating stream (slow oscillation between
	// camps) must be flagged.
	var rs []rating.Rating
	for i := 0; i < 400; i++ {
		v := 0.4
		if (i/40)%2 == 0 {
			v = 0.8
		}
		rs = append(rs, rating.Rating{
			Rater: rating.RaterID(i),
			Value: v,
			Time:  float64(i),
		})
	}
	rep, err := DetectWhiteness(rs, WhitenessConfig{
		Config: Config{Mode: WindowByCount, Size: 100, Step: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SuspiciousWindows()) == 0 {
		t.Fatal("oscillating stream not flagged")
	}
	// Rater bookkeeping mirrors the AR detector's.
	total := 0
	for _, s := range rep.PerRater {
		total += s.TotalRatings
		if s.SuspiciousRatings > s.TotalRatings {
			t.Fatalf("bad stats %+v", s)
		}
	}
	if total != len(rs) {
		t.Fatalf("totals %d != %d", total, len(rs))
	}
}

func TestDetectWhitenessSkipsShortWindows(t *testing.T) {
	var rs []rating.Rating
	for i := 0; i < 8; i++ {
		rs = append(rs, rating.Rating{Rater: rating.RaterID(i), Value: 0.5, Time: float64(i)})
	}
	rep, err := DetectWhiteness(rs, WhitenessConfig{
		Config: Config{Mode: WindowByCount, Size: 8, Step: 8},
		Lags:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Windows {
		if w.Fitted {
			t.Fatal("short window fitted")
		}
	}
}

// TestWhitenessMissesSmartCollusion documents the baseline's blind
// spot: interleaved low-variance colluders barely disturb the
// autocorrelation, so Ljung-Box sees "white".
func TestWhitenessMissesSmartCollusion(t *testing.T) {
	flagged := 0
	const runs = 10
	for seed := int64(0); seed < runs; seed++ {
		rs := genScenario(seed, true)
		rep, err := DetectWhiteness(rs, WhitenessConfig{
			Config: Config{Mode: WindowByCount, Size: 50, Step: 25},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range rep.Windows {
			if w.Suspicious && w.Window.Start >= 30 && w.Window.End <= 44 {
				flagged++
				break
			}
		}
	}
	// The AR detector catches most of these runs; whiteness should
	// catch notably fewer (allow some, it is a statistical test).
	if flagged > runs/2 {
		t.Fatalf("whiteness flagged %d/%d smart-collusion runs; expected it to mostly miss", flagged, runs)
	}
}
