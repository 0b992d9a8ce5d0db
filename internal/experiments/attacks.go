package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/sim"
	"repro/internal/stat"
)

// AblationAttacks evaluates the full pipeline against the adaptive
// collusion strategies of internal/attack — the paper's future-work
// question ("possible attacks to the proposed solutions"). For every
// strategy it reports, over repeated runs on the illustrative workload:
//
//   - detection ratio: runs with at least one suspicious window
//     overlapping the campaign;
//   - naive damage: how far the simple average moves versus the simple
//     average of the honest-only trace;
//   - proposed damage: how far the full system's trust-weighted
//     aggregate moves versus the same pipeline run on the honest-only
//     trace (same-pipeline baselining cancels the Beta filter's
//     truncation bias, which raises any aggregate of wide honest noise);
//   - residual damage: proposed / naive (lower = better defense).
func AblationAttacks(seed int64, mode Mode, opt Options) (Result, error) {
	runs := runsFor(mode, 60, 10)
	rng := randx.New(seed)
	workers := parallel.Workers(opt.Workers)
	strats := attack.All()

	table := Table{
		Title: "adaptive-attack robustness (illustrative workload)",
		Columns: []string{
			"strategy", "detection", "naive damage", "proposed damage", "residual",
		},
	}

	// The serial loop drew one stream seed per (strategy, run) in
	// flat order, so all of them are pre-drawn at once.
	seeds := rng.Seeds(len(strats) * runs)
	type outcome struct {
		detected                bool
		naiveDamage, propDamage float64
	}

	var notes []string
	for s, strat := range strats {
		outs, err := parallel.MapLocal(runs, workers,
			detector.NewWorkspace,
			func(i int, ws *detector.Workspace) (outcome, error) {
				local := randx.New(seeds[s*runs+i])
				p := sim.DefaultIllustrative()
				p.Attack = false
				honest, err := sim.GenerateIllustrative(local, p)
				if err != nil {
					return outcome{}, err
				}
				// local.Int63() is the seed local.Split() would have
				// consumed, so the planned campaigns are unchanged.
				campaign, err := strat.Plan(local.Int63(), attack.Params{
					Object:   p.Object,
					Start:    p.AStart,
					End:      p.AEnd,
					Rate:     p.ArrivalRate * p.RecruitPower2,
					Bias:     p.BiasShift2,
					Variance: p.BadVar,
					Levels:   p.RLevels,
				}, attack.FlatQuality(p.Quality))
				if err != nil {
					return outcome{}, fmt.Errorf("%s: %w", strat.Name(), err)
				}
				combined := append(append([]sim.LabeledRating(nil), honest...), campaign...)
				sim.SortByTime(combined)
				rs := sim.Ratings(combined)

				rep, err := detector.DetectWS(rs, illustrativeDetectorConfig(), ws)
				if err != nil {
					return outcome{}, err
				}
				var out outcome
				out.detected = anySuspiciousOverlapping(rep, p.AStart, p.AEnd)

				honestMean := stat.Mean(rating.Values(sim.Ratings(honest)))
				naive := stat.Mean(rating.Values(rs))

				attackedAgg, err := pipelineAggregate(rs, p.Object)
				if err != nil {
					return outcome{}, err
				}
				honestAgg, err := pipelineAggregate(sim.Ratings(honest), p.Object)
				if err != nil {
					return outcome{}, err
				}
				out.naiveDamage = naive - honestMean
				out.propDamage = attackedAgg - honestAgg
				return out, nil
			})
		if err != nil {
			return Result{}, err
		}
		var detected int
		naiveDamage := make([]float64, 0, runs)
		proposedDamage := make([]float64, 0, runs)
		for _, o := range outs {
			if o.detected {
				detected++
			}
			naiveDamage = append(naiveDamage, o.naiveDamage)
			proposedDamage = append(proposedDamage, o.propDamage)
		}

		nd := stat.Mean(naiveDamage)
		pd := stat.Mean(proposedDamage)
		residual := 0.0
		if nd > 1e-9 {
			residual = pd / nd
		}
		table.Rows = append(table.Rows, []string{
			strat.Name(),
			f(float64(detected) / float64(runs)),
			f(nd), f(pd), f(residual),
		})
		notes = append(notes, fmt.Sprintf("%s: detection %.2f, damage %.3f→%.3f",
			strat.Name(), float64(detected)/float64(runs), nd, pd))
	}

	return Result{
		ID:    "ablation-attacks",
		Title: "Robustness against adaptive collusion strategies (future work of §V)",
		Notes: append([]string{
			fmt.Sprintf("%d runs per strategy at the tab1 operating threshold %.3f", runs, illustrativeThreshold),
		}, notes...),
		Tables: []Table{table},
	}, nil
}

// pipelineAggregate runs one trace through the full system (two 30-day
// maintenance windows) and returns the trust-weighted aggregate.
func pipelineAggregate(rs []rating.Rating, obj rating.ObjectID) (float64, error) {
	sys, err := core.NewSystem(core.Config{
		Detector: detector.Config{
			Width: 10, TimeStep: 5, Order: 4,
			Threshold: illustrativeThreshold, MinWindow: 25,
		},
	})
	if err != nil {
		return 0, err
	}
	if err := sys.SubmitAll(rs); err != nil {
		return 0, err
	}
	for _, w := range [][2]float64{{0, 30}, {30, 60}} {
		if _, err := sys.ProcessWindow(w[0], w[1]); err != nil {
			return 0, err
		}
	}
	agg, err := sys.Aggregate(obj)
	if err != nil {
		return 0, err
	}
	return agg.Value, nil
}
