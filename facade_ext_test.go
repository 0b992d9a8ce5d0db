package repro_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/randx"
)

func TestFacadeSnapshot(t *testing.T) {
	s, err := repro.NewSystem(repro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(repro.Rating{Rater: 1, Object: 1, Value: 0.7, Time: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := repro.NewSystem(repro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("Len = %d", restored.Len())
	}
}

func TestFacadeHTTPService(t *testing.T) {
	srv, err := repro.NewServer(repro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := repro.NewServiceClient(ts.URL, ts.Client())
	ctx := context.Background()
	if !client.Healthy(ctx) {
		t.Fatal("unhealthy")
	}
	n, err := client.Submit(ctx, []repro.RatingPayload{
		{Rater: 1, Object: 9, Value: 0.8, Time: 1},
		{Rater: 2, Object: 9, Value: 0.6, Time: 2},
	})
	if err != nil || n != 2 {
		t.Fatalf("submit: %d, %v", n, err)
	}
	agg, err := client.Aggregate(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Value != 0.7 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestFacadeWhitenessDetector(t *testing.T) {
	var rs []repro.Rating
	for i := 0; i < 200; i++ {
		v := 0.3
		if (i/20)%2 == 0 {
			v = 0.8
		}
		rs = append(rs, repro.Rating{Rater: repro.RaterID(i), Value: v, Time: float64(i)})
	}
	rep, err := repro.DetectWhiteness(rs, repro.WhitenessConfig{
		Config: repro.DetectorConfig{Mode: repro.WindowByCount, Size: 100, Step: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SuspiciousWindows()) == 0 {
		t.Fatal("oscillation not flagged")
	}
}

func TestFacadeSelectAROrder(t *testing.T) {
	rng := randx.New(1)
	x := make([]float64, 200)
	prev := 0.0
	for i := range x {
		prev = 0.8*prev + rng.Normal(0, 0.1)
		x[i] = prev
	}
	best, all, err := repro.SelectAROrder(x, 6, repro.ARCriterionMDL, repro.AROptions{Demean: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("%d candidates", len(all))
	}
	if best.Order < 1 || best.Order > 3 {
		t.Fatalf("MDL picked order %d for AR(1)", best.Order)
	}
}

func TestFacadeAttackStrategies(t *testing.T) {
	strategies := repro.AttackStrategies()
	if len(strategies) != 9 {
		t.Fatalf("%d strategies", len(strategies))
	}
	params := repro.AttackParams{Start: 0, End: 10, Rate: 5, Bias: 0.2, Variance: 0.01}
	quality := repro.AttackQuality(func(repro.ObjectID, float64) float64 { return 0.5 })
	for i, s := range strategies {
		ls, err := s.Plan(randx.Derive(2, i), params, quality)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(ls) == 0 {
			t.Fatalf("%s: empty campaign", s.Name())
		}
	}
}

func TestFacadeOpinionAlgebra(t *testing.T) {
	a, err := repro.OpinionFromEvidence(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.OpinionFromRating(0.8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repro.DiscountOpinion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := repro.ConsensusOpinion(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if e := c.Expectation(); e <= 0 || e >= 1 {
		t.Fatalf("expectation %g", e)
	}
	v, err := (repro.SubjectiveLogicAggregation{}).Aggregate([]float64{0.8}, []float64{0.9})
	if err != nil || v <= 0 || v >= 1 {
		t.Fatalf("aggregate %g, %v", v, err)
	}
}
