package detector

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/signal"
)

// genScenario builds a §III.A.2-style trace: honest Poisson ratings for
// one object over 60 days, plus (optionally) type-2 collaborative
// ratings in days [30, 44]. Honest raters get IDs from 0, colluders
// from 10000.
func genScenario(seed int64, withAttack bool) []rating.Rating {
	rng := randx.New(seed)
	var rs []rating.Rating
	next := rating.RaterID(0)
	for _, tm := range rng.PoissonProcess(3, 0, 60) {
		quality := 0.7 + 0.1*tm/60 // drifts 0.7 -> 0.8
		rs = append(rs, rating.Rating{
			Rater: next,
			Value: randx.Quantize(rng.NormalVar(quality, 0.04), 11, true),
			Time:  tm,
		})
		next++
	}
	if withAttack {
		colluder := rating.RaterID(10000)
		for _, tm := range rng.PoissonProcess(4.5, 30, 44) {
			quality := 0.7 + 0.1*tm/60
			rs = append(rs, rating.Rating{
				Rater: colluder,
				Value: randx.Quantize(rng.NormalVar(quality+0.15, 0.002), 11, true),
				Time:  tm,
			})
			colluder++
		}
	}
	rating.SortByTime(rs)
	return rs
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Config{
		{Mode: WindowMode(9)},
		{Size: -1},
		{Step: -1},
		{Width: -1},
		{TimeStep: -2},
		{Order: -1},
		{Threshold: 1.5},
		{Threshold: -0.1},
		{Scale: 2},
		{Scale: -0.5},
		{Signal: signal.Options{Method: signal.Method(99)}},
		{Signal: signal.Options{Ridge: math.NaN()}},
		{Width: math.NaN()},
		{TimeStep: math.NaN()},
		{Threshold: math.NaN()},
		{Scale: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestDetectEmptyInput(t *testing.T) {
	rep, err := Detect(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 0 || len(rep.PerRater) != 0 {
		t.Fatalf("empty input: %+v", rep)
	}
}

func TestModelErrorDropsUnderAttack(t *testing.T) {
	// The central claim (Fig 4): model error inside attacked windows is
	// markedly lower than in honest-only windows.
	var honestErrs, attackErrs []float64
	for seed := int64(0); seed < 10; seed++ {
		cfg := Config{Mode: WindowByCount, Size: 50, Step: 25, Threshold: 0.5}
		repH, err := Detect(genScenario(seed, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		repA, err := Detect(genScenario(seed, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range repH.Windows {
			if w.Fitted {
				honestErrs = append(honestErrs, w.Model.NormalizedError)
			}
		}
		for _, w := range repA.Windows {
			// Windows fully inside the attack interval.
			if w.Fitted && w.Window.Start >= 30 && w.Window.End <= 44 {
				attackErrs = append(attackErrs, w.Model.NormalizedError)
			}
		}
	}
	if len(attackErrs) == 0 {
		t.Fatal("no attack windows found")
	}
	meanH := mean(honestErrs)
	meanA := mean(attackErrs)
	if meanA >= 0.7*meanH {
		t.Fatalf("attack error %.4f not clearly below honest error %.4f", meanA, meanH)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// calibratedThreshold returns a threshold halfway between the mean
// honest and mean attacked error levels for the test scenario.
func calibratedThreshold(t *testing.T) float64 {
	t.Helper()
	cfg := Config{Mode: WindowByCount, Size: 50, Step: 25, Threshold: 0.999}
	var hErrs, aErrs []float64
	for seed := int64(0); seed < 6; seed++ {
		repH, err := Detect(genScenario(seed, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range repH.Windows {
			if w.Fitted {
				hErrs = append(hErrs, w.Model.NormalizedError)
			}
		}
		repA, err := Detect(genScenario(seed, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range repA.Windows {
			if w.Fitted && w.Window.Start >= 30 && w.Window.End <= 44 {
				aErrs = append(aErrs, w.Model.NormalizedError)
			}
		}
	}
	return (mean(hErrs) + mean(aErrs)) / 2
}

func TestSuspicionConcentratesOnColluders(t *testing.T) {
	threshold := calibratedThreshold(t)
	var colluderHits, colluders int
	var flaggedRuns int
	for seed := int64(20); seed < 30; seed++ {
		rs := genScenario(seed, true)
		rep, err := Detect(rs, Config{Mode: WindowByCount, Size: 50, Step: 25, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.SuspiciousWindows()) == 0 {
			continue
		}
		flaggedRuns++
		for id, s := range rep.PerRater {
			if id >= 10000 {
				colluders++
				if s.Suspicion > 0 {
					colluderHits++
				}
			}
		}
	}
	if flaggedRuns < 5 {
		t.Fatalf("attack flagged in only %d/10 runs", flaggedRuns)
	}
	if colluders == 0 || float64(colluderHits)/float64(colluders) < 0.4 {
		t.Fatalf("only %d/%d colluders accrued suspicion", colluderHits, colluders)
	}
}

func TestHonestRunsRarelyFlagged(t *testing.T) {
	threshold := calibratedThreshold(t)
	suspicious := 0
	total := 0
	for seed := int64(40); seed < 50; seed++ {
		rep, err := Detect(genScenario(seed, false), Config{
			Mode: WindowByCount, Size: 50, Step: 25, Threshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		suspicious += len(rep.SuspiciousWindows())
		for _, w := range rep.Windows {
			if w.Fitted {
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no fitted windows")
	}
	if rate := float64(suspicious) / float64(total); rate > 0.35 {
		t.Fatalf("false-alarm window rate %.2f too high", rate)
	}
}

func TestTimeWindowMode(t *testing.T) {
	rs := genScenario(1, true)
	rep, err := Detect(rs, Config{
		Mode: WindowByTime, T0: 0, End: 60, Width: 10, TimeStep: 5,
		Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 12 {
		t.Fatalf("%d windows, want 12 for [0,60) width 10 step 5", len(rep.Windows))
	}
	// ~30 ratings per 10-day window: all should be fitted at order 4.
	fitted := 0
	for _, w := range rep.Windows {
		if w.Fitted {
			fitted++
		}
	}
	if fitted < 10 {
		t.Fatalf("only %d/12 windows fitted", fitted)
	}
}

func TestTimeWindowModeDefaultEnd(t *testing.T) {
	rs := genScenario(2, false)
	rep, err := Detect(rs, Config{Mode: WindowByTime, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("no windows with default end")
	}
	last := rep.Windows[len(rep.Windows)-1]
	if last.Window.Start > rs[len(rs)-1].Time {
		t.Fatal("window past the last rating")
	}
}

func TestShortWindowsSkipped(t *testing.T) {
	// 3 ratings cannot support an order-4 covariance fit.
	rs := genScenario(3, false)[:3]
	rep, err := Detect(rs, Config{Mode: WindowByTime, T0: 0, End: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Windows {
		if w.Fitted || w.Suspicious {
			t.Fatalf("short window fitted: %+v", w)
		}
	}
}

func TestSuspicionLevelFormulas(t *testing.T) {
	cfg := Config{Threshold: 0.02, Scale: 0.5}.withDefaults()
	// Bounded reading: e = 0.01 -> 0.5 * (1 - 0.5) = 0.25.
	if got := suspicionLevel(0.01, cfg); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("bounded level = %g, want 0.25", got)
	}
	// Literal formula: 0.5 * 0.99 / 0.02 = 24.75.
	cfg.LiteralLevel = true
	if got := suspicionLevel(0.01, cfg); math.Abs(got-24.75) > 1e-12 {
		t.Fatalf("literal level = %g, want 24.75", got)
	}
}

func TestLevelBoundedWithinScale(t *testing.T) {
	rs := genScenario(4, true)
	rep, err := Detect(rs, Config{Threshold: 0.9, Scale: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Windows {
		if w.Suspicious && (w.Level <= 0 || w.Level > 0.7) {
			t.Fatalf("level %g outside (0, 0.7]", w.Level)
		}
	}
}

func TestOverlappingWindowsCountIncrementalMax(t *testing.T) {
	// Constant ratings from one rater: every window is perfectly
	// predictable (e = 0, L = Scale). Overlapping suspicious windows
	// must accrue Scale once, not once per window.
	var rs []rating.Rating
	for i := 0; i < 40; i++ {
		rs = append(rs, rating.Rating{Rater: 7, Value: 0.8, Time: float64(i)})
	}
	rep, err := Detect(rs, Config{Mode: WindowByCount, Size: 20, Step: 5, Threshold: 0.5, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.SuspiciousWindows()); n < 2 {
		t.Fatalf("want multiple suspicious windows, got %d", n)
	}
	s := rep.PerRater[7]
	if math.Abs(s.Suspicion-1) > 1e-9 {
		t.Fatalf("suspicion = %g, want exactly 1 (incremental max)", s.Suspicion)
	}
	if s.SuspiciousRatings != 40 {
		t.Fatalf("suspicious ratings = %d, want 40", s.SuspiciousRatings)
	}
}

func TestPerRaterTotals(t *testing.T) {
	rs := genScenario(5, true)
	rep, err := Detect(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range rep.PerRater {
		total += s.TotalRatings
		if s.SuspiciousRatings > s.TotalRatings {
			t.Fatalf("s_i > n_i: %+v", s)
		}
	}
	if total != len(rs) {
		t.Fatalf("per-rater totals %d != %d ratings", total, len(rs))
	}
}

func TestModelErrors(t *testing.T) {
	rs := genScenario(6, false)
	rep, err := Detect(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	centers, errs := rep.ModelErrors()
	if len(centers) != len(errs) || len(centers) == 0 {
		t.Fatalf("series lengths %d, %d", len(centers), len(errs))
	}
	for i := 1; i < len(centers); i++ {
		if centers[i] <= centers[i-1] {
			t.Fatal("window centers not increasing")
		}
	}
}

func TestMerge(t *testing.T) {
	a := Report{PerRater: map[rating.RaterID]RaterStats{
		1: {Suspicion: 0.5, SuspiciousRatings: 2, TotalRatings: 5},
		2: {TotalRatings: 3},
	}}
	b := Report{PerRater: map[rating.RaterID]RaterStats{
		1: {Suspicion: 0.25, SuspiciousRatings: 1, TotalRatings: 4},
		3: {Suspicion: 1, SuspiciousRatings: 3, TotalRatings: 3},
	}}
	m := Merge(a, b)
	if got := m[1]; got.Suspicion != 0.75 || got.SuspiciousRatings != 3 || got.TotalRatings != 9 {
		t.Fatalf("merged rater 1 = %+v", got)
	}
	if got := m[2]; got.TotalRatings != 3 {
		t.Fatalf("merged rater 2 = %+v", got)
	}
	if got := m[3]; got.Suspicion != 1 {
		t.Fatalf("merged rater 3 = %+v", got)
	}
}

// Property: detector bookkeeping is consistent for arbitrary traces —
// levels bounded, totals conserved, suspicious ratings only when a
// suspicious window exists.
func TestDetectorInvariantsProperty(t *testing.T) {
	prop := func(seed int64, timeMode bool) bool {
		rng := randx.New(seed)
		n := rng.Intn(150)
		rs := make([]rating.Rating, n)
		for i := range rs {
			rs[i] = rating.Rating{
				Rater: rating.RaterID(rng.Intn(30)),
				Value: randx.Quantize(rng.Float64(), 11, true),
				Time:  rng.Uniform(0, 60),
			}
		}
		rating.SortByTime(rs)
		cfg := Config{Threshold: 0.3, Scale: 0.9}
		if timeMode {
			cfg.Mode = WindowByTime
			cfg.End = 60
		} else {
			cfg.Mode = WindowByCount
			cfg.Size = 20
			cfg.Step = 10
		}
		rep, err := Detect(rs, cfg)
		if err != nil {
			return false
		}
		total := 0
		anySuspicious := len(rep.SuspiciousWindows()) > 0
		for _, s := range rep.PerRater {
			total += s.TotalRatings
			if s.Suspicion < 0 || s.SuspiciousRatings < 0 || s.SuspiciousRatings > s.TotalRatings {
				return false
			}
			if !anySuspicious && (s.Suspicion != 0 || s.SuspiciousRatings != 0) {
				return false
			}
		}
		if total != n {
			return false
		}
		for _, w := range rep.Windows {
			if w.Suspicious && (w.Level <= 0 || w.Level > cfg.Scale) {
				return false
			}
			if w.Suspicious && !w.Fitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: detection is deterministic — same input, same report.
func TestDetectorDeterministicProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rs := genScenario(seed, true)
		cfg := Config{Signal: signal.Options{Method: signal.MethodCovariance}}
		r1, err1 := Detect(rs, cfg)
		r2, err2 := Detect(rs, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Windows) != len(r2.Windows) {
			return false
		}
		for i := range r1.Windows {
			if r1.Windows[i].Model.NormalizedError != r2.Windows[i].Model.NormalizedError {
				return false
			}
		}
		for id, s := range r1.PerRater {
			if r2.PerRater[id] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectWSMatchesDetect(t *testing.T) {
	// A dirty, reused workspace must produce exactly Detect's report —
	// same windows, same per-rater stats — across alternating attacked
	// and honest traces.
	cfg := Config{Size: 50, Step: 25, Order: 4, Threshold: 0.105}
	ws := NewWorkspace()
	for trial := 0; trial < 8; trial++ {
		rs := genScenario(int64(trial+1), trial%2 == 0)
		want, errWant := Detect(rs, cfg)
		got, errGot := DetectWS(rs, cfg, ws)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: err %v vs %v", trial, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if len(got.Windows) != len(want.Windows) {
			t.Fatalf("trial %d: %d windows vs %d", trial, len(got.Windows), len(want.Windows))
		}
		for i := range want.Windows {
			a, b := want.Windows[i], got.Windows[i]
			if a.Fitted != b.Fitted || a.Suspicious != b.Suspicious || a.Level != b.Level ||
				a.Model.NormalizedError != b.Model.NormalizedError {
				t.Fatalf("trial %d window %d differs: %+v vs %+v", trial, i, a, b)
			}
		}
		if len(got.PerRater) != len(want.PerRater) {
			t.Fatalf("trial %d: PerRater sizes %d vs %d", trial, len(got.PerRater), len(want.PerRater))
		}
		for id, s := range want.PerRater {
			if got.PerRater[id] != s {
				t.Fatalf("trial %d rater %d: %+v vs %+v", trial, id, s, got.PerRater[id])
			}
		}
	}
}

func TestDetectWSNilWorkspace(t *testing.T) {
	cfg := Config{Size: 50, Step: 25, Order: 4, Threshold: 0.105}
	rs := genScenario(5, true)
	want, err := Detect(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DetectWS(rs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) != len(want.Windows) || len(got.PerRater) != len(want.PerRater) {
		t.Fatal("nil-workspace DetectWS differs from Detect")
	}
}
