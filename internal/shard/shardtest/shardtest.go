// Package shardtest is the shard conformance harness: a seeded
// workload generator, a driver that replays a workload through any
// rating system implementation, and a canonical fingerprint of the
// externally observable state. The conformance contract is that the
// fingerprint — every per-window observation, every trust record,
// every aggregate, every detector verdict, printed to full float64
// precision — is byte-identical across shard counts and against the
// single-threaded core.System oracle.
package shardtest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
)

// System is the surface the harness drives. *core.System and
// *shard.Engine both satisfy it.
type System interface {
	SubmitAll(rs []rating.Rating) error
	ProcessWindow(start, end float64) (core.ProcessReport, error)
	Aggregate(obj rating.ObjectID) (core.AggregateResult, error)
	TrustSnapshot() map[rating.RaterID]float64
	MaliciousRaters() []rating.RaterID
	Len() int
}

// Workload is a seeded multi-month rating scenario: honest raters
// track each object's true quality with noise while a malicious
// clique floods a target object with low ratings in coordinated
// bursts — the signal pattern the detector exists to catch.
type Workload struct {
	Seed      int64
	Objects   int
	Raters    int // honest raters; IDs [0, Raters)
	Malicious int // clique size; IDs [Raters, Raters+Malicious)
	Months    int
	PerMonth  int // honest ratings per month
	// BurstLen is the malicious clique's per-month burst size; zero
	// means 3×Malicious.
	BurstLen int
}

func (w Workload) withDefaults() Workload {
	if w.Objects == 0 {
		w.Objects = 5
	}
	if w.Raters == 0 {
		w.Raters = 20
	}
	if w.Malicious == 0 {
		w.Malicious = 4
	}
	if w.Months == 0 {
		w.Months = 3
	}
	if w.PerMonth == 0 {
		w.PerMonth = 400
	}
	if w.BurstLen == 0 {
		w.BurstLen = 3 * w.Malicious
	}
	return w
}

// Month is one maintenance period: the ratings submitted during it
// (in arrival order) and the window to process at its end.
type Month struct {
	Ratings    []rating.Rating
	Start, End float64
}

// Generate expands the workload into its months. Every rating in a
// month has a globally distinct time, so the stored per-object
// sequences — and therefore every downstream result — are independent
// of arrival order; the arrival order itself is a seeded shuffle, so
// batches interleave objects and shards the way concurrent traffic
// would.
func (w Workload) Generate() []Month {
	w = w.withDefaults()
	rng := randx.New(w.Seed)
	quality := make([]float64, w.Objects)
	for i := range quality {
		quality[i] = rng.Uniform(0.3, 0.9)
	}
	target := rating.ObjectID(rng.Intn(w.Objects))

	months := make([]Month, w.Months)
	for m := range months {
		start := 30 * float64(m)
		end := start + 30
		total := w.PerMonth + w.BurstLen
		// Distinct, sorted times strictly inside [start, end).
		times := make([]float64, total)
		for i := range times {
			times[i] = start + 30*(float64(i)+0.5)/float64(total)
		}
		rs := make([]rating.Rating, 0, total)
		for i := 0; i < w.PerMonth; i++ {
			obj := rating.ObjectID(rng.Intn(w.Objects))
			val := quality[obj] + rng.Normal(0, 0.08)
			rs = append(rs, rating.Rating{
				Rater:  rating.RaterID(rng.Intn(w.Raters)),
				Object: obj,
				Value:  clamp01(val),
			})
		}
		// The clique's burst: coordinated low ratings on the target.
		for i := 0; i < w.BurstLen; i++ {
			rs = append(rs, rating.Rating{
				Rater:  rating.RaterID(w.Raters + i%w.Malicious),
				Object: target,
				Value:  clamp01(rng.Uniform(0, 0.1)),
			})
		}
		// Assign the distinct times in submission-slot order, then
		// shuffle arrival order.
		for i := range rs {
			rs[i].Time = times[i]
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		months[m] = Month{Ratings: rs, Start: start, End: end}
	}
	return months
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Run replays the workload through sys month by month — submit the
// month's ratings, process its window — and returns the canonical
// trace: per-window observations and object verdicts, then the final
// fingerprint.
func Run(sys System, w Workload) (string, error) {
	return RunWithCheckpoints(sys, w, nil)
}

// RunWithCheckpoints is Run plus a hook invoked after each month's
// window. It turns the harness into a multi-node oracle: the
// two-node replication conformance test, for example, waits in the
// checkpoint for its follower to align at the month's barrier and
// requires its fingerprint to be byte-identical to the oracle's. A
// checkpoint error aborts the run.
func RunWithCheckpoints(sys System, w Workload, checkpoint func(month int) error) (string, error) {
	w = w.withDefaults()
	var b strings.Builder
	for m, month := range w.Generate() {
		if err := sys.SubmitAll(month.Ratings); err != nil {
			return "", fmt.Errorf("month %d: %w", m, err)
		}
		rep, err := sys.ProcessWindow(month.Start, month.End)
		if err != nil {
			return "", fmt.Errorf("month %d: %w", m, err)
		}
		renderReport(&b, m, rep)
		if checkpoint != nil {
			if err := checkpoint(m); err != nil {
				return "", fmt.Errorf("month %d checkpoint: %w", m, err)
			}
		}
	}
	fp, err := Fingerprint(sys, w.Objects)
	if err != nil {
		return "", err
	}
	b.WriteString(fp)
	return b.String(), nil
}

func renderReport(b *strings.Builder, m int, rep core.ProcessReport) {
	fmt.Fprintf(b, "window %d [%.17g,%.17g) objects=%d\n", m, rep.Start, rep.End, len(rep.Objects))
	for _, o := range rep.Objects {
		suspicious := 0
		for _, w := range o.Detection.Windows {
			if w.Suspicious {
				suspicious++
			}
		}
		fmt.Fprintf(b, "  object %d considered=%d filtered=%d windows=%d suspicious=%d degraded=%v\n",
			o.Object, o.Considered, o.Filtered, len(o.Detection.Windows), suspicious, o.Degraded)
	}
	ids := make([]rating.RaterID, 0, len(rep.Observations))
	for id := range rep.Observations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := rep.Observations[id]
		fmt.Fprintf(b, "  rater %d n=%d f=%d s=%d mass=%.17g\n",
			id, o.N, o.Filtered, o.Suspicious, o.SuspicionMass)
	}
}

// Fingerprint renders sys's externally observable end state — rating
// count, full-precision trust per rater, malicious set, per-object
// aggregates — in a canonical order.
func Fingerprint(sys System, objects int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d\n", sys.Len())
	snap := sys.TrustSnapshot()
	ids := make([]rating.RaterID, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "trust %d %.17g\n", id, snap[id])
	}
	fmt.Fprintf(&b, "malicious %v\n", sys.MaliciousRaters())
	for obj := 0; obj < objects; obj++ {
		res, err := sys.Aggregate(rating.ObjectID(obj))
		if errors.Is(err, rating.ErrUnknownObject) {
			fmt.Fprintf(&b, "aggregate %d none\n", obj)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("aggregate object %d: %w", obj, err)
		}
		fmt.Fprintf(&b, "aggregate %d value=%.17g used=%d filtered=%d fellback=%v\n",
			obj, res.Value, res.Used, res.Filtered, res.FellBack)
	}
	return b.String(), nil
}
