package core

import (
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/telemetry"
)

// TestProcessWindowMetrics runs a maintenance window on an
// instrumented system and checks the stage spans and per-window
// counters land in the registry.
func TestProcessWindowMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	for i := 0; i < 400; i++ {
		r := rating.Rating{
			Rater:  rating.RaterID(i % 40),
			Object: rating.ObjectID(i % 2),
			Value:  randx.Quantize(rng.NormalVar(0.7, 0.04), 11, true),
			Time:   float64(i) * 0.15,
		}
		if err := sys.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.ProcessWindow(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Objects) != 2 {
		t.Fatalf("objects = %d", len(rep.Objects))
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pipeline_stage_seconds_count{stage="filter"} 2`,
		`pipeline_stage_seconds_count{stage="ar_fit"} 2`,
		`pipeline_stage_seconds_count{stage="charge"} 1`,
		`pipeline_stage_seconds_count{stage="trust_update"} 1`,
		"pipeline_window_seconds_count 1",
		"pipeline_windows_total 1",
		"pipeline_ratings_considered_total 400",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestProcessWindowMetricsParallelMatchesSerial reruns the same
// instrumented window at several worker counts: reports must stay
// bit-identical and the per-object stage counts unchanged (histograms
// are concurrency-safe, so spans from worker goroutines all land).
func TestProcessWindowMetricsParallelMatchesSerial(t *testing.T) {
	build := func(workers int, m *Metrics) ProcessReport {
		sys, err := NewSystem(Config{Workers: workers, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(11)
		for i := 0; i < 600; i++ {
			r := rating.Rating{
				Rater:  rating.RaterID(i % 30),
				Object: rating.ObjectID(i % 6),
				Value:  randx.Quantize(rng.NormalVar(0.6, 0.05), 11, true),
				Time:   float64(i) * 0.1,
			}
			if err := sys.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sys.ProcessWindow(0, 60)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	base := build(1, nil)
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		m := NewMetrics(reg)
		rep := build(workers, m)
		if len(rep.Objects) != len(base.Objects) {
			t.Fatalf("workers=%d: %d objects vs %d", workers, len(rep.Objects), len(base.Objects))
		}
		for i := range rep.Objects {
			if rep.Objects[i].Object != base.Objects[i].Object ||
				rep.Objects[i].Filtered != base.Objects[i].Filtered {
				t.Fatalf("workers=%d: object %d diverged", workers, i)
			}
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `pipeline_stage_seconds_count{stage="ar_fit"} 6`) {
			t.Errorf("workers=%d: ar_fit span count wrong:\n%s", workers, sb.String())
		}
	}
}
