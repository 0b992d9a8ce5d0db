package detector

import (
	"fmt"

	"repro/internal/rating"
	"repro/internal/stat"
)

// WhitenessConfig parameterizes DetectWhiteness.
type WhitenessConfig struct {
	// Config supplies the windowing (and Scale); Threshold and Order
	// are unused by this detector.
	Config
	// Lags is the number of autocorrelation lags Ljung-Box tests; zero
	// means 10.
	Lags int
	// Alpha is the significance level: a window whose whiteness
	// p-value falls below Alpha is marked suspicious. Zero means 0.05.
	Alpha float64
}

func (c WhitenessConfig) withDefaults() WhitenessConfig {
	c.Config = c.Config.withDefaults()
	if c.Lags == 0 {
		c.Lags = 10
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	return c
}

// Validate reports configuration errors.
func (c WhitenessConfig) Validate() error {
	cd := c.withDefaults()
	if err := cd.Config.Validate(); err != nil {
		return err
	}
	if cd.Lags < 1 {
		return fmt.Errorf("detector: whiteness lags %d", cd.Lags)
	}
	if !(cd.Alpha > 0 && cd.Alpha < 1) { // NaN fails too
		return fmt.Errorf("detector: whiteness alpha %g outside (0,1)", cd.Alpha)
	}
	return nil
}

// DetectWhiteness is the statistically textbook rendering of the
// paper's §III.A.1 premise — "(x(t)−E(x(t))) should approximately be
// white noise" for honest ratings — as a detector: each window is
// demeaned and Ljung-Box tested; windows where whiteness is rejected
// (p < Alpha) are suspicious.
//
// It exists as a baseline: the ablation-whiteness experiment shows that
// interleaved collaborative ratings barely disturb the autocorrelation
// sequence, so this detector misses the smart attack that the paper's
// raw AR-error heuristic (which keys on the clique's variance collapse)
// catches. The WindowReport's Model is left zero; the whiteness
// p-value is stored in Model.NormalizedError for plotting symmetry.
func DetectWhiteness(rs []rating.Rating, cfg WhitenessConfig) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cfg = cfg.withDefaults()

	windows, err := buildWindows(rs, cfg.Config)
	if err != nil {
		return Report{}, err
	}

	ws := &Workspace{}
	report := ws.begin(rs, len(windows))
	minSamples := max(cfg.Lags+2, cfg.MinWindow)
	for _, w := range windows {
		wr := WindowReport{Window: w}
		if len(w.Ratings) >= minSamples {
			ws.values = rating.AppendValues(ws.values[:0], w.Ratings)
			_, p, lerr := stat.LjungBox(ws.values, cfg.Lags)
			if lerr != nil {
				return Report{}, fmt.Errorf("detector: whiteness window %d: %w", w.Index, lerr)
			}
			wr.Fitted = true
			wr.Model.NormalizedError = p
			if p < cfg.Alpha {
				wr.Suspicious = true
				wr.Level = cfg.Scale * (1 - p/cfg.Alpha)
			}
		}
		if wr.Suspicious {
			ws.accrue(report.PerRater, w.Ratings, ws.marked[w.Lo:w.Hi], wr.Level, nil, 0)
		}
		report.Windows = append(report.Windows, wr)
	}
	return report, nil
}
