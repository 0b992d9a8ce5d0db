package experiments

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/signal"
	"repro/internal/sim"
	"repro/internal/stat"
	"repro/internal/trust"
)

// separation holds one detector configuration's honest-vs-attacked
// error statistics on the illustrative workload. The operating point is
// chosen per configuration as the threshold whose run-level false-alarm
// rate is 5% (the 5th percentile of each honest run's minimum window
// error), so detection numbers are comparable across configurations
// with different absolute error scales.
type separation struct {
	honestErr, attackErr float64
	threshold            float64 // the 5%-false-alarm threshold
	detection            float64 // run-level detection at that threshold
}

// separationStudy measures how well a detector configuration separates
// honest from attacked windows on the §III.A.2 workload.
func separationStudy(seed int64, runs, workers int, cfg detector.Config) (separation, error) {
	rng := randx.New(seed)
	probe := cfg
	probe.Threshold = 0.999

	type runErrs struct {
		honestErrs, attackErrs []float64
		honestMin, attackMin   float64
	}
	seeds := rng.Seeds(runs)
	perRun, err := parallel.MapLocal(runs, workers,
		detector.NewWorkspace,
		func(i int, ws *detector.Workspace) (runErrs, error) {
			local := randx.New(seeds[i])
			p := sim.DefaultIllustrative()
			attacked, err := sim.GenerateIllustrative(local, p)
			if err != nil {
				return runErrs{}, err
			}
			repA, err := detector.DetectWS(sim.Ratings(attacked), probe, ws)
			if err != nil {
				return runErrs{}, err
			}
			pHonest := p
			pHonest.Attack = false
			honest, err := sim.GenerateIllustrative(local.Split(), pHonest)
			if err != nil {
				return runErrs{}, err
			}
			repH, err := detector.DetectWS(sim.Ratings(honest), probe, ws)
			if err != nil {
				return runErrs{}, err
			}

			out := runErrs{honestMin: 1.0, attackMin: 1.0}
			for _, w := range repH.Windows {
				if w.Fitted {
					out.honestErrs = append(out.honestErrs, w.Model.NormalizedError)
					if w.Model.NormalizedError < out.honestMin {
						out.honestMin = w.Model.NormalizedError
					}
				}
			}
			for _, w := range repA.Windows {
				if !w.Fitted {
					continue
				}
				center := (w.Window.Start + w.Window.End) / 2
				if center >= p.AStart && center <= p.AEnd {
					out.attackErrs = append(out.attackErrs, w.Model.NormalizedError)
					if w.Model.NormalizedError < out.attackMin {
						out.attackMin = w.Model.NormalizedError
					}
				}
			}
			return out, nil
		})
	if err != nil {
		return separation{}, err
	}
	var honestErrs, attackErrs, honestMins []float64
	var attackMins []float64 // per attacked run: min error among in-attack windows
	for _, r := range perRun {
		honestErrs = append(honestErrs, r.honestErrs...)
		attackErrs = append(attackErrs, r.attackErrs...)
		honestMins = append(honestMins, r.honestMin)
		attackMins = append(attackMins, r.attackMin)
	}

	out := separation{
		honestErr: stat.Mean(honestErrs),
		attackErr: stat.Mean(attackErrs),
	}
	thr, err := stat.Quantile(honestMins, 0.05)
	if err != nil {
		return separation{}, err
	}
	out.threshold = thr
	var det int
	for _, m := range attackMins {
		if m < thr {
			det++
		}
	}
	out.detection = float64(det) / float64(len(attackMins))
	return out, nil
}

func separationRow(label string, s separation) []string {
	return []string{
		label, f(s.honestErr), f(s.attackErr),
		f(s.honestErr / mathx.Clamp(s.attackErr, 1e-9, 1)),
		f(s.threshold), f(s.detection),
	}
}

var separationColumns = []string{
	"config", "honest err", "attack err", "separation", "thr@5%FA", "detection@5%FA",
}

// AblationDemean contrasts fitting raw rating windows (the paper's
// Matlab covm pipeline) against demeaning first. Demeaning removes the
// DC component the detector keys on, collapsing the separation — the
// evidence for DESIGN.md's choice of raw fits.
func AblationDemean(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 120, 20)
	workers := parallel.Workers(opt.Workers)
	table := Table{Title: "raw vs demeaned AR fits", Columns: separationColumns}
	for _, demean := range []bool{false, true} {
		cfg := illustrativeDetectorConfig()
		cfg.Signal = signal.Options{Demean: demean}
		s, err := separationStudy(seed, runs, workers, cfg)
		if err != nil {
			return Result{}, err
		}
		label := "raw (paper)"
		if demean {
			label = "demeaned"
		}
		table.Rows = append(table.Rows, separationRow(label, s))
	}
	return Result{
		ID:     "ablation-demean",
		Title:  "Ablation: demeaning the window before the AR fit",
		Notes:  []string{fmt.Sprintf("%d runs; separation = honest/attack mean error ratio (higher is better)", runs)},
		Tables: []Table{table},
	}, nil
}

// AblationARMethod compares the covariance method against Yule-Walker
// and Burg estimators.
func AblationARMethod(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 120, 20)
	workers := parallel.Workers(opt.Workers)
	table := Table{Title: "AR estimator comparison", Columns: separationColumns}
	for _, method := range []signal.Method{signal.MethodCovariance, signal.MethodYuleWalker, signal.MethodBurg} {
		cfg := illustrativeDetectorConfig()
		cfg.Signal = signal.Options{Method: method}
		s, err := separationStudy(seed, runs, workers, cfg)
		if err != nil {
			return Result{}, err
		}
		table.Rows = append(table.Rows, separationRow(method.String(), s))
	}
	return Result{
		ID:     "ablation-armethod",
		Title:  "Ablation: AR parameter estimation method",
		Notes:  []string{fmt.Sprintf("%d runs on the illustrative workload", runs)},
		Tables: []Table{table},
	}, nil
}

// AblationOrder sweeps the AR model order.
func AblationOrder(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 120, 20)
	workers := parallel.Workers(opt.Workers)
	table := Table{Title: "AR model order sweep", Columns: separationColumns}
	for _, order := range []int{2, 4, 6, 8, 12} {
		cfg := illustrativeDetectorConfig()
		cfg.Order = order
		s, err := separationStudy(seed, runs, workers, cfg)
		if err != nil {
			return Result{}, err
		}
		table.Rows = append(table.Rows, separationRow(fmt.Sprintf("order %d", order), s))
	}
	return Result{
		ID:     "ablation-order",
		Title:  "Ablation: AR model order",
		Notes:  []string{fmt.Sprintf("%d runs; window of 50 ratings", runs)},
		Tables: []Table{table},
	}, nil
}

// AblationWindow sweeps the detection window size (with 50% overlap).
func AblationWindow(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 120, 20)
	workers := parallel.Workers(opt.Workers)
	table := Table{Title: "detector window sweep", Columns: separationColumns}
	for _, size := range []int{30, 50, 70, 100} {
		cfg := illustrativeDetectorConfig()
		cfg.Size = size
		cfg.Step = size / 2
		s, err := separationStudy(seed, runs, workers, cfg)
		if err != nil {
			return Result{}, err
		}
		table.Rows = append(table.Rows, separationRow(fmt.Sprintf("%d ratings", size), s))
	}
	return Result{
		ID:     "ablation-window",
		Title:  "Ablation: detection window size (50% overlap)",
		Notes:  []string{fmt.Sprintf("%d runs", runs)},
		Tables: []Table{table},
	}, nil
}

// AblationThresholdROC sweeps the model-error threshold and reports the
// resulting detection/false-alarm operating curve.
func AblationThresholdROC(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 120, 20)
	rng := randx.New(seed)
	probe := illustrativeDetectorConfig()
	probe.Threshold = 0.999

	// Each run keeps the minimum window error of its probe reports: the
	// attacked trace's over the attack interval [30, 44], the honest
	// one's over the whole trace. A threshold thr <= 1 flags a run
	// exactly when that minimum is under thr.
	type pair struct{ attacked, honest float64 }
	seeds := rng.Seeds(runs)
	pairs, err := parallel.MapLocal(runs, parallel.Workers(opt.Workers),
		detector.NewWorkspace,
		func(i int, ws *detector.Workspace) (pair, error) {
			local := randx.New(seeds[i])
			p := sim.DefaultIllustrative()
			attacked, err := sim.GenerateIllustrative(local, p)
			if err != nil {
				return pair{}, err
			}
			repA, err := detector.DetectWS(sim.Ratings(attacked), probe, ws)
			if err != nil {
				return pair{}, err
			}
			p.Attack = false
			honest, err := sim.GenerateIllustrative(local.Split(), p)
			if err != nil {
				return pair{}, err
			}
			repH, err := detector.DetectWS(sim.Ratings(honest), probe, ws)
			if err != nil {
				return pair{}, err
			}
			return pair{minWindowError(repA, 30, 44), minWindowError(repH, 0, 1e18)}, nil
		})
	if err != nil {
		return Result{}, err
	}

	det := Series{Name: "detection-ratio"}
	fa := Series{Name: "false-alarm-ratio"}
	for thr := 0.02; thr <= 0.30001; thr += 0.02 {
		var d, a int
		for _, pr := range pairs {
			if pr.attacked < thr {
				d++
			}
			if pr.honest < thr {
				a++
			}
		}
		det.X = append(det.X, thr)
		det.Y = append(det.Y, float64(d)/float64(runs))
		fa.X = append(fa.X, thr)
		fa.Y = append(fa.Y, float64(a)/float64(runs))
	}

	// Threshold-free summary: run-level AUC over minimum window errors
	// (lower error = more attack-like, so scores are negated).
	var scores []float64
	var labels []bool
	for _, pr := range pairs {
		scores = append(scores, -pr.attacked, -pr.honest)
		labels = append(labels, true, false)
	}
	auc := stat.AUC(scores, labels)

	return Result{
		ID:    "ablation-threshold",
		Title: "Ablation: model-error threshold ROC",
		Notes: []string{
			fmt.Sprintf("%d runs; the paper operates at detection 0.782 / false alarm 0.06", runs),
			fmt.Sprintf("run-level AUC of the minimum window error: %.4f", auc),
		},
		Series: []Series{det, fa},
	}, nil
}

// minWindowError returns the smallest fitted error among windows
// overlapping [start, end] (1 when none are fitted).
func minWindowError(rep detector.Report, start, end float64) float64 {
	minErr := 1.0
	for _, w := range rep.Windows {
		if !w.Fitted {
			continue
		}
		if w.Window.End >= start && w.Window.Start <= end && w.Model.NormalizedError < minErr {
			minErr = w.Model.NormalizedError
		}
	}
	return minErr
}

// AblationTrustFloor sweeps Method 3's trust floor on the tab2 case
// study (floor 0.5 is the paper's "neutral" cut; floor 0 degenerates to
// the plain trust-weighted average).
func AblationTrustFloor(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 500, 50)
	rng := randx.New(seed)

	aggs := []struct {
		label string
		agg   trust.Aggregator
	}{
		{"floor 0 (plain weighted)", trust.PlainWeightedAverage{}},
		{"floor 0.3", trust.ModifiedWeightedAverage{Floor: 0.3}},
		{"floor 0.5 (paper)", trust.ModifiedWeightedAverage{Floor: 0.5}},
		{"floor 0.6", trust.ModifiedWeightedAverage{Floor: 0.6}},
		{"floor 0.7", trust.ModifiedWeightedAverage{Floor: 0.7}},
	}
	type runVals struct {
		vals []float64
		fail []bool
	}
	seeds := rng.Seeds(runs)
	perRun, err := parallel.Map(runs, parallel.Workers(opt.Workers),
		func(i int) (runVals, error) {
			local := randx.New(seeds[i])
			var ratings, trusts []float64
			for j := 0; j < 10; j++ {
				ratings = append(ratings, mathx.Clamp(local.Normal(0.8, 0.05), 0, 1))
				trusts = append(trusts, mathx.Clamp(local.Normal(0.95, 0.05), 0, 1))
			}
			for j := 0; j < 10; j++ {
				ratings = append(ratings, mathx.Clamp(local.Normal(0.4, 0.02), 0, 1))
				trusts = append(trusts, mathx.Clamp(local.Normal(0.6, 0.1), 0, 1))
			}
			out := runVals{vals: make([]float64, len(aggs)), fail: make([]bool, len(aggs))}
			for k, a := range aggs {
				v, err := a.agg.Aggregate(ratings, trusts)
				if err != nil {
					out.fail[k] = true
					continue
				}
				out.vals[k] = v
			}
			return out, nil
		})
	if err != nil {
		return Result{}, err
	}
	sums := make([]float64, len(aggs))
	fails := make([]int, len(aggs))
	for _, r := range perRun {
		for k := range aggs {
			if r.fail[k] {
				fails[k]++
			} else {
				sums[k] += r.vals[k]
			}
		}
	}
	table := Table{
		Title:   "trust-floor sweep (desired 0.8)",
		Columns: []string{"floor", "mean Rag", "undefined runs"},
	}
	for k, a := range aggs {
		ok := runs - fails[k]
		mean := 0.0
		if ok > 0 {
			mean = sums[k] / float64(ok)
		}
		table.Rows = append(table.Rows, []string{a.label, f(mean), fmt.Sprintf("%d", fails[k])})
	}
	return Result{
		ID:     "ablation-floor",
		Title:  "Ablation: Method 3 trust floor",
		Notes:  []string{fmt.Sprintf("%d runs of the tab2 case study", runs)},
		Tables: []Table{table},
	}, nil
}
