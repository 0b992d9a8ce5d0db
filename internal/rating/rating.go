// Package rating defines the core data model: a Rating is one score for
// one object by one rater at one point in time, and the paper's central
// move is to stop treating a batch of ratings as i.i.d. samples and
// start treating the time-ordered sequence as a realization of a random
// process (§III.A.1). Windowing — by time with overlap, or by rating
// count — is therefore a first-class operation here.
package rating

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// RaterID identifies a rater.
type RaterID int

// ObjectID identifies a rated object (product, movie, seller, ...).
type ObjectID int

// Rating is a single rating event. Value is on the [0, 1] scale the
// paper uses throughout; Time is in days (fractional) from the start of
// the observation period.
type Rating struct {
	Rater  RaterID
	Object ObjectID
	Value  float64
	Time   float64
}

// Validate reports whether the rating is well-formed.
func (r Rating) Validate() error {
	if math.IsNaN(r.Value) || r.Value < 0 || r.Value > 1 {
		return fmt.Errorf("rating: value %g outside [0,1]", r.Value)
	}
	if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
		return fmt.Errorf("rating: invalid time %g", r.Time)
	}
	return nil
}

// ErrUnknownObject is returned when a store has no ratings for the
// requested object.
var ErrUnknownObject = errors.New("rating: unknown object")

// Store holds ratings grouped by object, kept sorted by time. The zero
// value is not usable; call NewStore.
type Store struct {
	byObject map[ObjectID][]Rating
	objects  []ObjectID
	n        int

	// groups and groupOf are AddBatchValidated's reusable per-object
	// bucket state: instead of a full (object, time) comparison sort of
	// the batch, ratings are scattered into per-object buckets in one
	// map-lookup pass and only each (small) bucket is sorted by time.
	// Both are reused across batches so the steady-state ingest path
	// allocates nothing once they have grown to the widest batch seen.
	groups  [][]Rating
	groupOf map[ObjectID]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byObject: make(map[ObjectID][]Rating)}
}

// Add inserts a rating, maintaining per-object time order. It rejects
// malformed ratings.
func (s *Store) Add(r Rating) error {
	if err := r.Validate(); err != nil {
		return err
	}
	rs := s.byObject[r.Object]
	if rs == nil {
		s.objects = append(s.objects, r.Object)
	}
	// Insert keeping time order; appends are the common case because
	// simulations emit chronologically.
	i := len(rs)
	for i > 0 && rs[i-1].Time > r.Time {
		i--
	}
	rs = append(rs, Rating{})
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	s.byObject[r.Object] = rs
	s.n++
	return nil
}

// AddBatchValidated inserts a batch of ratings in one pass per object:
// the batch is scattered into per-object buckets and each object's
// bucket is merged into its existing slice with a single linear merge,
// instead of one ordered insert (worst case O(len(slice)) memmove) per
// rating.
//
// It is equivalent to calling Add for each rating in order: ties on
// time keep existing ratings before batch ratings and batch ratings in
// submission order, exactly like repeated Add.
//
// It skips Add's validation: the caller guarantees every rating passes
// Validate (the sharded engine fuses validation with its
// shard-placement check in one pass, and the router validates at the
// submission edge). Passing an invalid rating corrupts no invariants
// here but stores a value downstream consumers were promised never to
// see — so only trusted ingest paths may call this.
func (s *Store) AddBatchValidated(rs []Rating) {
	if len(rs) == 0 {
		return
	}
	// Scatter the batch into per-object buckets: one map lookup per
	// rating instead of a comparison sort of the whole batch. Unseen
	// objects register in submission order (first-seen order is
	// observable through Objects()), and within a bucket submission
	// order is preserved, so equal-time ratings keep Add's ordering.
	if s.groupOf == nil {
		s.groupOf = make(map[ObjectID]int, 64)
	}
	clear(s.groupOf)
	used := 0
	for _, r := range rs {
		gi, ok := s.groupOf[r.Object]
		if !ok {
			if _, seen := s.byObject[r.Object]; !seen {
				s.byObject[r.Object] = nil
				s.objects = append(s.objects, r.Object)
			}
			if used == len(s.groups) {
				s.groups = append(s.groups, nil)
			}
			gi = used
			s.groupOf[r.Object] = gi
			s.groups[gi] = s.groups[gi][:0]
			used++
		}
		s.groups[gi] = append(s.groups[gi], r)
	}
	for _, g := range s.groups[:used] {
		sortGroupByTime(g)
		s.mergeObject(g[0].Object, g)
	}
	s.n += len(rs)
}

// sortGroupByTime stably sorts one object's bucket by time. Buckets
// are small and chronological feeds arrive nearly sorted, so straight
// insertion sort wins below a crossover; big disordered buckets fall
// back to the library's stable sort.
func sortGroupByTime(g []Rating) {
	if len(g) <= 32 {
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && g[j-1].Time > g[j].Time; j-- {
				g[j-1], g[j] = g[j], g[j-1]
			}
		}
		return
	}
	slices.SortStableFunc(g, func(a, b Rating) int {
		if a.Time < b.Time {
			return -1
		}
		if a.Time > b.Time {
			return 1
		}
		return 0
	})
}

// mergeObject merges the time-sorted group `add` (all for object id)
// into the object's existing time-sorted slice. The merge runs in
// place (backward, inside the existing slice's capacity) whenever it
// can, so steady-state ingest only allocates on amortized slice
// growth.
func (s *Store) mergeObject(id ObjectID, add []Rating) {
	old := s.byObject[id]
	// Fast path: the whole group lands at or after the current tail
	// (chronological ingest), so it is a plain append.
	if len(old) == 0 || old[len(old)-1].Time <= add[0].Time {
		s.byObject[id] = append(old, add...)
		return
	}
	need := len(old) + len(add)
	dst := old
	if cap(dst) < need {
		// Grow like append does so merge-into-the-middle ingest keeps
		// amortized O(1) allocations per rating.
		newCap := 2 * cap(dst)
		if newCap < need {
			newCap = need
		}
		dst = make([]Rating, len(old), newCap)
		copy(dst, old)
	}
	dst = dst[:need]
	// Backward merge: write position k never catches the unread old
	// tail (k = i+j+1 > i while batch ratings remain), so merging into
	// the slice being read is safe. On time ties the batch rating is
	// placed later, keeping existing ratings ahead of equal-time batch
	// ratings — Add's insertion rule.
	i, j := len(old)-1, len(add)-1
	for k := need - 1; j >= 0; k-- {
		if i >= 0 && dst[i].Time > add[j].Time {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	s.byObject[id] = dst
}

// Len returns the total number of stored ratings.
func (s *Store) Len() int { return s.n }

// Objects returns the object IDs in first-seen order. The slice is a
// copy.
func (s *Store) Objects() []ObjectID {
	return append([]ObjectID(nil), s.objects...)
}

// Each calls fn with every object, in first-seen order, and its
// time-sorted ratings. The slices are the store's own, not copies: fn
// must neither modify nor keep them, and the store must not change
// until Each returns.
func (s *Store) Each(fn func(id ObjectID, rs []Rating)) {
	for _, id := range s.objects {
		fn(id, s.byObject[id])
	}
}

// ForObject returns the ratings of one object in time order. The slice
// is a copy, so callers may slice and mutate freely.
func (s *Store) ForObject(id ObjectID) ([]Rating, error) {
	rs, ok := s.byObject[id]
	if !ok {
		return nil, fmt.Errorf("object %d: %w", id, ErrUnknownObject)
	}
	return append([]Rating(nil), rs...), nil
}

// Window returns the ratings of one object with time in [start, end),
// in time order: what filtering ForObject's slice by time keeps. It
// binary-searches the object's time-sorted ratings and copies only the
// window, which is empty when end <= start.
func (s *Store) Window(id ObjectID, start, end float64) ([]Rating, error) {
	rs, ok := s.byObject[id]
	if !ok {
		return nil, fmt.Errorf("object %d: %w", id, ErrUnknownObject)
	}
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= start })
	hi := sort.Search(len(rs), func(i int) bool { return !(rs[i].Time < end) })
	if hi <= lo {
		return nil, nil
	}
	return append([]Rating(nil), rs[lo:hi]...), nil
}

// Values extracts the rating values of rs in order.
func Values(rs []Rating) []float64 {
	return AppendValues(make([]float64, 0, len(rs)), rs)
}

// AppendValues appends the rating values of rs to dst and returns the
// extended slice — the allocation-free form of Values for hot loops
// that reuse a scratch buffer (dst[:0]).
func AppendValues(dst []float64, rs []Rating) []float64 {
	for _, r := range rs {
		dst = append(dst, r.Value)
	}
	return dst
}

// Times extracts the rating times of rs in order.
func Times(rs []Rating) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Time
	}
	return out
}

// Raters returns the distinct raters appearing in rs, in first-seen
// order.
func Raters(rs []Rating) []RaterID {
	seen := make(map[RaterID]bool, len(rs))
	var out []RaterID
	for _, r := range rs {
		if !seen[r.Rater] {
			seen[r.Rater] = true
			out = append(out, r.Rater)
		}
	}
	return out
}

// SortByTime sorts rs in place by time (stable, so equal-time ratings
// keep their relative order).
func SortByTime(rs []Rating) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
}

// Window is a contiguous run of ratings with its covering interval.
type Window struct {
	// Index is the window's ordinal (the k of Procedure 1).
	Index int
	// Start and End delimit the covered time interval [Start, End).
	Start, End float64
	// Lo and Hi are the half-open index range [Lo, Hi) of the member
	// ratings within the slice the window was cut from, so callers can
	// mark individual ratings across overlapping windows.
	Lo, Hi int
	// Ratings are the member ratings in time order. The slice aliases
	// the input to the windowing function.
	Ratings []Rating
}

// Values returns the member rating values.
func (w Window) Values() []float64 { return Values(w.Ratings) }

// CountWindows splits rs (which must be time-sorted) into windows of
// exactly `size` ratings, advancing by `step` ratings, so adjacent
// windows overlap by size−step. This is Fig 4's "50 ratings in each
// window" mode. A trailing partial window is dropped, matching the
// paper's fixed-size fits.
func CountWindows(rs []Rating, size, step int) ([]Window, error) {
	if size < 1 || step < 1 {
		return nil, fmt.Errorf("rating: count windows size=%d step=%d", size, step)
	}
	var out []Window
	for start := 0; start+size <= len(rs); start += step {
		member := rs[start : start+size]
		out = append(out, Window{
			Index:   len(out),
			Start:   member[0].Time,
			End:     member[len(member)-1].Time,
			Lo:      start,
			Hi:      start + size,
			Ratings: member,
		})
	}
	return out, nil
}

// TimeWindows splits rs (time-sorted) into windows covering
// [t0 + k·step, t0 + k·step + width) for k = 0.. until end. §IV uses
// width 10 days with step 5 (50% overlap). Windows with no ratings are
// still emitted (empty Ratings) so downstream indexing by time stays
// regular; callers skip windows that are too small to model.
func TimeWindows(rs []Rating, t0, end, width, step float64) ([]Window, error) {
	if width <= 0 || step <= 0 {
		return nil, fmt.Errorf("rating: time windows width=%g step=%g", width, step)
	}
	if end < t0 {
		return nil, fmt.Errorf("rating: time windows end %g before start %g", end, t0)
	}
	var out []Window
	for start := t0; start < end; start += step {
		stop := start + width
		lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= start })
		hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= stop })
		out = append(out, Window{
			Index:   len(out),
			Start:   start,
			End:     stop,
			Lo:      lo,
			Hi:      hi,
			Ratings: rs[lo:hi],
		})
	}
	return out, nil
}
