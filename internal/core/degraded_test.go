package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/rating"
)

// nanFilter accepts every rating with its value replaced by NaN, so
// every AR fit the detector attempts on what it accepts fails as
// singular, a failure no config check can see.
type nanFilter struct{}

func (nanFilter) Name() string { return "nan" }

func (nanFilter) Apply(rs []rating.Rating) (filter.Result, error) {
	out := make([]rating.Rating, len(rs))
	for i, r := range rs {
		r.Value = math.NaN()
		out[i] = r
	}
	return filter.Result{Accepted: out}, nil
}

// With every AR fit failing, every object whose windows are large
// enough to fit fails detection. The maintenance window must survive
// anyway: the failing object is reported degraded and falls back to
// filter-only evidence, while objects that never reach the estimator
// (too few ratings per window) stay clean. The failure comes from the
// data: DetectWS validates its config on every call, so a broken one,
// such as an unknown AR method, would degrade the sparse object too.
func TestProcessWindowDegradesPerObject(t *testing.T) {
	sys, err := NewSystem(Config{Filter: nanFilter{}})
	if err != nil {
		t.Fatal(err)
	}

	// Object 1: dense, so the detector attempts (and fails) a fit.
	for i := 0; i < 40; i++ {
		if err := sys.Submit(rating.Rating{
			Rater: rating.RaterID(i % 5), Object: 1,
			Value: float64(i%10) / 10, Time: float64(i) * 0.25,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Object 2: too sparse for any window to be fitted.
	for i := 0; i < 3; i++ {
		if err := sys.Submit(rating.Rating{
			Rater: rating.RaterID(10 + i), Object: 2,
			Value: 0.9, Time: float64(i) * 3,
		}); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := sys.ProcessWindow(0, 10)
	if err != nil {
		t.Fatalf("window failed instead of degrading: %v", err)
	}
	if len(rep.Objects) != 2 {
		t.Fatalf("objects in report: %d", len(rep.Objects))
	}
	byObj := map[rating.ObjectID]ObjectReport{}
	for _, o := range rep.Objects {
		byObj[o.Object] = o
	}
	deg := byObj[1]
	if !deg.Degraded || !strings.Contains(deg.DetectorError, "object 1") {
		t.Fatalf("object 1 not degraded: %+v", deg)
	}
	if len(deg.Detection.Windows) != 0 {
		t.Fatal("degraded object still carries detection windows")
	}
	if ok := byObj[2]; ok.Degraded || ok.DetectorError != "" {
		t.Fatalf("object 2 wrongly degraded: %+v", ok)
	}
	if got := rep.DegradedObjects(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DegradedObjects = %v", got)
	}

	// Filter-only evidence still reached Procedure 2: every rater of
	// the degraded object has an observation with n > 0 and no
	// suspicion mass.
	for r := 0; r < 5; r++ {
		obs, ok := rep.Observations[rating.RaterID(r)]
		if !ok || obs.N == 0 {
			t.Fatalf("rater %d lost its observations: %+v", r, obs)
		}
		if obs.Suspicious != 0 || obs.SuspicionMass != 0 {
			t.Fatalf("degraded object produced suspicion: %+v", obs)
		}
	}
	// And the trust manager was updated (records exist for raters).
	if tr := sys.TrustIn(0); tr <= 0 || tr > 1 {
		t.Fatalf("trust after degraded window: %g", tr)
	}
}

// A healthy configuration must behave exactly as before: no degraded
// objects, detection reports intact.
func TestProcessWindowNoDegradationOnHealthyFit(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sys.Submit(rating.Rating{
			Rater: rating.RaterID(i % 5), Object: 7,
			Value: float64(i%10) / 10, Time: float64(i) * 0.25,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.ProcessWindow(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.DegradedObjects()); n != 0 {
		t.Fatalf("%d degraded objects on healthy config", n)
	}
	if len(rep.Objects) != 1 || len(rep.Objects[0].Detection.Windows) == 0 {
		t.Fatalf("detection windows missing: %+v", rep.Objects)
	}
}
