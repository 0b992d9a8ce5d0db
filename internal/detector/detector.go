// Package detector implements Procedure 1 of the paper: AR
// signal-modeling detection of collaborative unfair ratings.
//
// The ratings of one object are split into (possibly overlapping)
// windows; each window is fitted with an all-pole AR model (covariance
// method by default) and its normalized model error e(k) computed. A
// window whose error falls below a threshold is marked suspicious with
// level L(k), and every rater with a rating inside a suspicious window
// accrues suspicion mass C(i) — the quantity Procedure 2 later converts
// into distrust.
package detector

import (
	"fmt"
	"math"

	"repro/internal/rating"
	"repro/internal/signal"
)

// WindowMode selects how an object's rating sequence is windowed.
type WindowMode int

const (
	// WindowByCount cuts windows of Size ratings advancing by Step
	// ratings (Fig 4's "50 ratings in each window").
	WindowByCount WindowMode = iota + 1
	// WindowByTime cuts windows of Width days advancing by TimeStep
	// days over [T0, End) (§IV: width 10, step 5).
	WindowByTime
)

// Config parameterizes a detection run. Zero values select the paper's
// defaults where one exists.
type Config struct {
	// Mode selects windowing; zero value means WindowByCount.
	Mode WindowMode
	// Size and Step configure WindowByCount. Zero means 50 and 25.
	Size, Step int
	// T0, End, Width and TimeStep configure WindowByTime. Width and
	// TimeStep zero mean 10 and 5 days (§IV.A). End zero means the time
	// of the last rating.
	T0, End, Width, TimeStep float64
	// Order is the AR model order; zero means 4.
	Order int
	// Threshold is the model-error cutoff below which a window is
	// suspicious; zero means 0.02 (§IV.A).
	Threshold float64
	// Scale is Procedure 1's scaling factor in (0, 1]; zero means 1.
	Scale float64
	// MinWindow is the minimum number of ratings a window needs to be
	// fitted. Zero means the AR method's own minimum (2·Order+1 for the
	// covariance method). Short windows overfit — an order-4 model on a
	// dozen ratings produces spuriously low errors — so workloads with
	// sparse tail windows should raise this (§IV uses 25).
	MinWindow int
	// Signal configures the AR fit (method, demeaning, ridge).
	Signal signal.Options
	// LiteralLevel uses the paper's printed formula
	// L(k) = Scale·(1−e(k))/Threshold, which exceeds 1 for any error
	// under a small threshold. The default is the bounded reading
	// L(k) = Scale·(1 − e(k)/Threshold) ∈ (0, Scale]; see DESIGN.md.
	LiteralLevel bool
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = WindowByCount
	}
	if c.Size == 0 {
		c.Size = 50
	}
	if c.Step == 0 {
		c.Step = 25
	}
	if c.Width == 0 {
		c.Width = 10
	}
	if c.TimeStep == 0 {
		c.TimeStep = 5
	}
	if c.Order == 0 {
		c.Order = 4
	}
	if c.Threshold == 0 {
		c.Threshold = 0.02
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Mode != WindowByCount && c.Mode != WindowByTime {
		return fmt.Errorf("detector: unknown window mode %d", int(c.Mode))
	}
	if c.Size < 1 || c.Step < 1 {
		return fmt.Errorf("detector: size=%d step=%d", c.Size, c.Step)
	}
	// The float ranges are written so that NaN fails them.
	if !(c.Width > 0 && c.TimeStep > 0) {
		return fmt.Errorf("detector: width=%g timestep=%g", c.Width, c.TimeStep)
	}
	if c.Order < 1 {
		return fmt.Errorf("detector: order %d", c.Order)
	}
	if !(c.Threshold > 0 && c.Threshold < 1) {
		return fmt.Errorf("detector: threshold %g outside (0,1)", c.Threshold)
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return fmt.Errorf("detector: scale %g outside (0,1]", c.Scale)
	}
	if c.MinWindow < 0 {
		return fmt.Errorf("detector: min window %d", c.MinWindow)
	}
	// Either one makes every fit fail, and a Stream would then retry
	// its first window on every push without ever compacting.
	if m := c.Signal.Method; m < 0 || m > signal.MethodBurg {
		return fmt.Errorf("detector: unknown AR method %d", int(m))
	}
	if math.IsNaN(c.Signal.Ridge) {
		return fmt.Errorf("detector: ridge %g", c.Signal.Ridge)
	}
	return nil
}

// WindowReport is the per-window outcome.
type WindowReport struct {
	Window rating.Window
	// Fitted reports whether the window had enough ratings for the AR
	// fit; unfitted windows are never suspicious.
	Fitted bool
	// Model is the AR fit (zero when !Fitted).
	Model signal.Model
	// Suspicious marks e(k) < Threshold.
	Suspicious bool
	// Level is Procedure 1's L(k) (zero when not suspicious).
	Level float64
}

// RaterStats aggregates Procedure 1's per-rater outputs over one run.
type RaterStats struct {
	// Suspicion is C(i), the accumulated suspicion mass.
	Suspicion float64
	// SuspiciousRatings is s_i: how many of the rater's ratings lie in
	// at least one suspicious window.
	SuspiciousRatings int
	// TotalRatings is n_i within this run.
	TotalRatings int
}

// Report is the outcome of one detection run over one object.
type Report struct {
	Windows  []WindowReport
	PerRater map[rating.RaterID]RaterStats
}

// SuspiciousWindows returns the indices of suspicious windows.
func (r Report) SuspiciousWindows() []int {
	var out []int
	for i, w := range r.Windows {
		if w.Suspicious {
			out = append(out, i)
		}
	}
	return out
}

// ModelErrors returns (center, e(k)) pairs for every fitted window —
// the series plotted in Fig 4 (lower) and Fig 5. Center is the midpoint
// of the window's covered interval.
func (r Report) ModelErrors() (centers, errs []float64) {
	for _, w := range r.Windows {
		if !w.Fitted {
			continue
		}
		centers = append(centers, (w.Window.Start+w.Window.End)/2)
		errs = append(errs, w.Model.NormalizedError)
	}
	return centers, errs
}

// Workspace carries the reusable state of Procedure 1: the AR-fit
// scratch (signal.Workspace), the per-window value buffer, the L_latest
// map and the suspicious-rating marks, plus a rater-count hint used to
// pre-size each report's PerRater map. Reusing one Workspace across the
// thousands of Detect calls a marketplace replay makes removes every
// per-call map/slice rebuild except the returned Report itself; a Stream
// owns one for life.
//
// A Workspace is not safe for concurrent use: one Workspace per
// goroutine, never shared (parallel.MapLocal builds exactly that).
type Workspace struct {
	sig    signal.Workspace
	values []float64
	latest map[rating.RaterID]float64
	// marked runs parallel to the ratings being scanned: a batch run's
	// input, or a Stream's buffer.
	marked    []bool
	raterHint int
}

// NewWorkspace returns an empty Workspace, ready for DetectWS.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin shapes the workspace for a batch run over rs and returns a
// report with pre-sized maps and every rater's n_i counted.
func (ws *Workspace) begin(rs []rating.Rating, windows int) Report {
	if ws.latest == nil {
		ws.latest = make(map[rating.RaterID]float64, ws.raterHint)
	} else {
		clear(ws.latest)
	}
	if cap(ws.marked) < len(rs) {
		ws.marked = make([]bool, len(rs))
	} else {
		ws.marked = ws.marked[:len(rs)]
		clear(ws.marked)
	}
	hint := ws.raterHint
	if hint == 0 || hint > len(rs) {
		hint = len(rs)
	}
	report := Report{
		Windows:  make([]WindowReport, 0, windows),
		PerRater: make(map[rating.RaterID]RaterStats, hint),
	}
	for _, r := range rs {
		s := report.PerRater[r.Rater]
		s.TotalRatings++
		report.PerRater[r.Rater] = s
	}
	ws.raterHint = len(report.PerRater)
	return report
}

// score is Procedure 1's per-window step: it fits the AR model to w's
// ratings and, when the normalized model error e(k) falls under the
// threshold, marks the window suspicious at level L(k). A window with
// fewer ratings than cfg.minSamples comes back unfitted. cfg must be
// validated and defaulted.
func (ws *Workspace) score(w rating.Window, cfg Config) (WindowReport, error) {
	wr := WindowReport{Window: w}
	if len(w.Ratings) < cfg.minSamples() {
		return wr, nil
	}
	ws.values = rating.AppendValues(ws.values[:0], w.Ratings)
	model, err := signal.FitWS(ws.values, cfg.Order, cfg.Signal, &ws.sig)
	if err != nil {
		return WindowReport{}, fmt.Errorf("detector: window %d: %w", w.Index, err)
	}
	wr.Fitted, wr.Model = true, model
	if model.NormalizedError < cfg.Threshold {
		wr.Suspicious = true
		wr.Level = suspicionLevel(model.NormalizedError, cfg)
	}
	return wr, nil
}

// accrue is Procedure 1 steps 8-16 for one suspicious window at level
// L(k): members are its ratings and marked their marks. It marks each
// member, counts the rater's s_i the first time one of its ratings is
// marked, and raises the rater's C(i) by level − L_latest only when the
// level is higher, so overlapping suspicious windows count once at
// their maximum level. onAccrue, when non-nil, sees each increment with
// at. Members are visited in index order, and a rater's stats are
// rewritten only when they change.
func (ws *Workspace) accrue(perRater map[rating.RaterID]RaterStats, members []rating.Rating, marked []bool, level float64, onAccrue func(id rating.RaterID, delta, at float64), at float64) {
	for i, r := range members {
		first := !marked[i]
		marked[i] = true
		prev := ws.latest[r.Rater]
		if !first && level <= prev {
			continue
		}
		s := perRater[r.Rater]
		if first {
			s.SuspiciousRatings++
		}
		if level > prev {
			s.Suspicion += level - prev
			ws.latest[r.Rater] = level
			if onAccrue != nil {
				onAccrue(r.Rater, level-prev, at)
			}
		}
		perRater[r.Rater] = s
	}
}

// Detect runs Procedure 1 over the time-sorted ratings of one object.
// Windows too short for the configured AR order are skipped (reported
// with Fitted == false).
func Detect(rs []rating.Rating, cfg Config) (Report, error) {
	return DetectWS(rs, cfg, nil)
}

// DetectWS is Detect with an explicit scratch workspace, for callers
// that scan many objects or maintenance windows in a loop. A nil ws
// uses a transient workspace. The report produced is identical to
// Detect's for any workspace history.
func DetectWS(rs []rating.Rating, cfg Config, ws *Workspace) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cfg = cfg.withDefaults()
	if ws == nil {
		ws = &Workspace{}
	}

	windows, err := buildWindows(rs, cfg)
	if err != nil {
		return Report{}, err
	}

	report := ws.begin(rs, len(windows))
	for _, w := range windows {
		wr, err := ws.score(w, cfg)
		if err != nil {
			return Report{}, err
		}
		if wr.Suspicious {
			ws.accrue(report.PerRater, w.Ratings, ws.marked[w.Lo:w.Hi], wr.Level, nil, 0)
		}
		report.Windows = append(report.Windows, wr)
	}
	return report, nil
}

// buildWindows cuts rs into windows per the configured mode.
func buildWindows(rs []rating.Rating, cfg Config) ([]rating.Window, error) {
	var (
		windows []rating.Window
		err     error
	)
	switch cfg.Mode {
	case WindowByCount:
		windows, err = rating.CountWindows(rs, cfg.Size, cfg.Step)
	case WindowByTime:
		end := cfg.End
		if end == 0 && len(rs) > 0 {
			end = rs[len(rs)-1].Time + 1e-9
		}
		windows, err = rating.TimeWindows(rs, cfg.T0, end, cfg.Width, cfg.TimeStep)
	}
	if err != nil {
		return nil, fmt.Errorf("detector: windowing: %w", err)
	}
	return windows, nil
}

// minSamples is the fewest ratings a window needs to be fitted: the AR
// method's own minimum, so a fit never reports ErrTooShort, or
// MinWindow when that is larger.
func (c Config) minSamples() int {
	m := c.Signal.Method
	if m == 0 {
		m = signal.MethodCovariance
	}
	return max(signal.MinSamples(m, c.Order), c.MinWindow)
}

func suspicionLevel(e float64, cfg Config) float64 {
	if cfg.LiteralLevel {
		return cfg.Scale * (1 - e) / cfg.Threshold
	}
	return cfg.Scale * (1 - e/cfg.Threshold)
}

// Merge accumulates per-rater statistics from several per-object
// reports — the multi-object extension the paper describes ("running
// procedure 1 for each object" with C initialized once).
func Merge(reports ...Report) map[rating.RaterID]RaterStats {
	out := make(map[rating.RaterID]RaterStats)
	for _, rep := range reports {
		for id, s := range rep.PerRater {
			acc := out[id]
			acc.Suspicion += s.Suspicion
			acc.SuspiciousRatings += s.SuspiciousRatings
			acc.TotalRatings += s.TotalRatings
			out[id] = acc
		}
	}
	return out
}
