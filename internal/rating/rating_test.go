package rating

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestRatingValidate(t *testing.T) {
	ok := Rating{Rater: 1, Object: 1, Value: 0.5, Time: 3}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Rating{
		{Value: -0.1, Time: 0},
		{Value: 1.1, Time: 0},
		{Value: math.NaN(), Time: 0},
		{Value: 0.5, Time: math.NaN()},
		{Value: 0.5, Time: math.Inf(1)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rating %d accepted: %+v", i, r)
		}
	}
}

func TestStoreAddAndRetrieve(t *testing.T) {
	s := NewStore()
	in := []Rating{
		{Rater: 1, Object: 7, Value: 0.5, Time: 2},
		{Rater: 2, Object: 7, Value: 0.6, Time: 1},
		{Rater: 3, Object: 9, Value: 0.7, Time: 5},
	}
	for _, r := range in {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	rs, err := s.ForObject(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Time != 1 || rs[1].Time != 2 {
		t.Fatalf("object 7 ratings = %+v", rs)
	}
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != 7 || objs[1] != 9 {
		t.Fatalf("objects = %v", objs)
	}
}

func TestStoreForObjectCopies(t *testing.T) {
	s := NewStore()
	if err := s.Add(Rating{Object: 1, Value: 0.5, Time: 1}); err != nil {
		t.Fatal(err)
	}
	rs, _ := s.ForObject(1)
	rs[0].Value = 0.9
	again, _ := s.ForObject(1)
	if again[0].Value != 0.5 {
		t.Fatal("ForObject exposed internal storage")
	}
}

func TestStoreUnknownObject(t *testing.T) {
	s := NewStore()
	if _, err := s.ForObject(5); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

// TestStoreWindowMatchesFilter pins Window to filtering ForObject's
// slice by time, on seeded stores with equal-time runs, for windows
// before, inside, straddling and after the data, empty and inverted
// windows included.
func TestStoreWindowMatchesFilter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		s := NewStore()
		batch := make([]Rating, 1+rng.Intn(300))
		for i := range batch {
			batch[i] = Rating{
				Rater:  RaterID(rng.Intn(50)),
				Object: ObjectID(rng.Intn(3)),
				Value:  rng.Float64(),
				// Quantized times make equal-time runs.
				Time: float64(rng.Intn(40)) / 2,
			}
		}
		s.AddBatchValidated(batch)
		windows := [][2]float64{
			{-10, -1}, {-5, 3}, {0, 20}, {2.5, 7}, {3, 3}, {7, 2.5},
			{15.5, 30}, {25, 40}, {math.Inf(-1), math.Inf(1)},
		}
		for k := 0; k < 20; k++ {
			a := rng.Uniform(-2, 22)
			windows = append(windows, [2]float64{a, a + rng.Uniform(0, 6)})
		}
		for _, obj := range s.Objects() {
			all, err := s.ForObject(obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				var want []Rating
				for _, r := range all {
					if r.Time >= w[0] && r.Time < w[1] {
						want = append(want, r)
					}
				}
				got, err := s.Window(obj, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d object %d window %v: %d ratings, want %d", seed, obj, w, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d object %d window %v: rating %d = %+v, want %+v", seed, obj, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestStoreWindowCopiesAndUnknown(t *testing.T) {
	s := NewStore()
	for _, r := range []Rating{{Object: 1, Value: 0.5, Time: 1}, {Object: 1, Value: 0.6, Time: 2}} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := s.Window(1, 0, 3)
	if err != nil || len(rs) != 2 {
		t.Fatalf("window = %v, %v", rs, err)
	}
	rs[0].Value = 0.9
	if again, _ := s.Window(1, 0, 3); again[0].Value != 0.5 {
		t.Fatal("Window exposed internal storage")
	}
	if _, err := s.Window(5, 0, 3); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	if err := s.Add(Rating{Value: 2, Time: 0}); err == nil {
		t.Fatal("invalid rating accepted")
	}
}

func TestValuesTimesRaters(t *testing.T) {
	rs := []Rating{
		{Rater: 4, Value: 0.1, Time: 1},
		{Rater: 2, Value: 0.2, Time: 2},
		{Rater: 4, Value: 0.3, Time: 3},
	}
	v := Values(rs)
	if v[0] != 0.1 || v[2] != 0.3 {
		t.Fatalf("Values = %v", v)
	}
	tm := Times(rs)
	if tm[0] != 1 || tm[2] != 3 {
		t.Fatalf("Times = %v", tm)
	}
	raters := Raters(rs)
	if len(raters) != 2 || raters[0] != 4 || raters[1] != 2 {
		t.Fatalf("Raters = %v", raters)
	}
}

func TestSortByTimeStable(t *testing.T) {
	rs := []Rating{
		{Rater: 1, Time: 5},
		{Rater: 2, Time: 1},
		{Rater: 3, Time: 5},
	}
	SortByTime(rs)
	if rs[0].Rater != 2 || rs[1].Rater != 1 || rs[2].Rater != 3 {
		t.Fatalf("sorted = %+v", rs)
	}
}

func makeSequential(n int) []Rating {
	rs := make([]Rating, n)
	for i := range rs {
		rs[i] = Rating{Rater: RaterID(i), Value: 0.5, Time: float64(i)}
	}
	return rs
}

func TestCountWindowsPaperGeometry(t *testing.T) {
	// Fig 4 lower plot: 50 ratings per window. With step 25 over 100
	// ratings: windows at 0, 25, 50.
	rs := makeSequential(100)
	ws, err := CountWindows(rs, 50, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	if ws[0].Start != 0 || ws[0].End != 49 || len(ws[0].Ratings) != 50 {
		t.Fatalf("w0 = %+v", ws[0])
	}
	if ws[2].Ratings[0].Time != 50 {
		t.Fatalf("w2 starts at %g", ws[2].Ratings[0].Time)
	}
	for i, w := range ws {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
	}
}

func TestCountWindowsDropsPartial(t *testing.T) {
	ws, err := CountWindows(makeSequential(7), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("%d windows, want 1 (trailing partial dropped)", len(ws))
	}
}

func TestCountWindowsValidation(t *testing.T) {
	if _, err := CountWindows(nil, 0, 1); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := CountWindows(nil, 1, 0); err == nil {
		t.Fatal("step 0 accepted")
	}
}

func TestTimeWindowsPaperGeometry(t *testing.T) {
	// §IV: width 10 days, step 5 (adjacent windows overlap by 5 days).
	rs := makeSequential(30) // times 0..29
	ws, err := TimeWindows(rs, 0, 30, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 6 {
		t.Fatalf("%d windows, want 6", len(ws))
	}
	if ws[0].Start != 0 || ws[0].End != 10 || len(ws[0].Ratings) != 10 {
		t.Fatalf("w0 = %+v", ws[0])
	}
	if ws[1].Start != 5 || len(ws[1].Ratings) != 10 {
		t.Fatalf("w1 = %+v", ws[1])
	}
	// Overlap: ratings 5..9 are in both window 0 and window 1.
	if ws[1].Ratings[0].Time != 5 {
		t.Fatalf("w1 first time = %g", ws[1].Ratings[0].Time)
	}
	// Last window [25,35) only sees times 25..29.
	last := ws[5]
	if len(last.Ratings) != 5 {
		t.Fatalf("last window has %d ratings", len(last.Ratings))
	}
}

func TestTimeWindowsEmptyWindowsEmitted(t *testing.T) {
	rs := []Rating{{Value: 0.5, Time: 25}}
	ws, err := TimeWindows(rs, 0, 30, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("%d windows", len(ws))
	}
	if len(ws[0].Ratings) != 0 || len(ws[1].Ratings) != 0 || len(ws[2].Ratings) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestTimeWindowsValidation(t *testing.T) {
	if _, err := TimeWindows(nil, 0, 10, 0, 5); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := TimeWindows(nil, 0, 10, 5, 0); err == nil {
		t.Fatal("step 0 accepted")
	}
	if _, err := TimeWindows(nil, 10, 0, 5, 5); err == nil {
		t.Fatal("end before start accepted")
	}
}

func TestWindowValues(t *testing.T) {
	w := Window{Ratings: []Rating{{Value: 0.2}, {Value: 0.8}}}
	v := w.Values()
	if len(v) != 2 || v[0] != 0.2 || v[1] != 0.8 {
		t.Fatalf("Values = %v", v)
	}
}

// Property: every rating lands in the right number of overlapping time
// windows and window membership respects [Start, End).
func TestTimeWindowsCoverageProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		n := rng.Intn(200)
		rs := make([]Rating, n)
		for i := range rs {
			rs[i] = Rating{Rater: RaterID(i), Value: 0.5, Time: rng.Uniform(0, 60)}
		}
		SortByTime(rs)
		ws, err := TimeWindows(rs, 0, 60, 10, 5)
		if err != nil {
			return false
		}
		// Each window's members lie inside its interval.
		for _, w := range ws {
			for _, r := range w.Ratings {
				if r.Time < w.Start || r.Time >= w.End {
					return false
				}
			}
		}
		// Count appearances: a rating at time t < 5 appears once, others
		// twice (width 10, step 5), except in the final partial region.
		counts := make(map[RaterID]int)
		for _, w := range ws {
			for _, r := range w.Ratings {
				counts[r.Rater]++
			}
		}
		// Windows start at 0, 5, ..., 55; the last covers [55, 65), so
		// every rating except those in [0, 5) is in exactly two windows.
		for _, r := range rs {
			want := 2
			if r.Time < 5 {
				want = 1
			}
			if counts[r.Rater] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the store keeps per-object ratings sorted regardless of
// insertion order.
func TestStoreSortedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		s := NewStore()
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			r := Rating{
				Rater:  RaterID(rng.Intn(10)),
				Object: ObjectID(rng.Intn(3)),
				Value:  rng.Float64(),
				Time:   rng.Uniform(0, 100),
			}
			if err := s.Add(r); err != nil {
				return false
			}
		}
		for _, obj := range s.Objects() {
			rs, err := s.ForObject(obj)
			if err != nil {
				return false
			}
			for i := 1; i < len(rs); i++ {
				if rs[i].Time < rs[i-1].Time {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddBatchValidated, fed valid ratings, is observably
// identical to calling Add for each rating in order — same object order, same per-object sequences
// (including equal-time tie order), same length.
func TestAddBatchEquivalentToSequentialAdd(t *testing.T) {
	prop := func(seed int64) bool {
		rng := randx.New(seed)
		seq, bat := NewStore(), NewStore()
		// Pre-load both stores so batches merge into existing state.
		pre := 1 + rng.Intn(40)
		for i := 0; i < pre; i++ {
			r := Rating{
				Rater:  RaterID(rng.Intn(8)),
				Object: ObjectID(rng.Intn(4)),
				Value:  rng.Float64(),
				// Quantized times force equal-time ties.
				Time: float64(rng.Intn(20)),
			}
			if err := seq.Add(r); err != nil {
				return false
			}
			if err := bat.Add(r); err != nil {
				return false
			}
		}
		batch := make([]Rating, 1+rng.Intn(60))
		for i := range batch {
			batch[i] = Rating{
				Rater:  RaterID(rng.Intn(8)),
				Object: ObjectID(rng.Intn(4)),
				Value:  rng.Float64(),
				Time:   float64(rng.Intn(20)),
			}
		}
		for _, r := range batch {
			if err := seq.Add(r); err != nil {
				return false
			}
		}
		bat.AddBatchValidated(batch)
		if seq.Len() != bat.Len() {
			return false
		}
		so, bo := seq.Objects(), bat.Objects()
		if len(so) != len(bo) {
			return false
		}
		for i := range so {
			if so[i] != bo[i] {
				return false
			}
		}
		for _, obj := range so {
			a, err := seq.ForObject(obj)
			if err != nil {
				return false
			}
			b, err := bat.ForObject(obj)
			if err != nil {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
