package collusion

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rating"
)

// Metric selects the pairwise similarity indicator.
type Metric int

const (
	// MetricPCC is the Pearson correlation coefficient over shared
	// residual cells (the default).
	MetricPCC Metric = iota + 1
	// MetricCosine is the cosine similarity over shared residual cells.
	MetricCosine
)

// Config parameterizes a collusion-graph pass. Zero values select
// defaults tuned for the §IV windowing (10-day detector windows).
type Config struct {
	// Metric selects the similarity indicator; zero means MetricPCC.
	Metric Metric
	// BucketDays is the co-rating time-bucket width: two raters
	// co-rate when they rate the same object inside the same bucket.
	// Zero means 10 (the §IV detector window width).
	BucketDays float64
	// MinCoRatings is the minimum number of shared (object, bucket)
	// cells a rater pair needs before its similarity is considered.
	// Zero means 3; values below 2 are invalid (similarity over fewer
	// than two points is meaningless).
	MinCoRatings int
	// MinSimilarity is the edge threshold: pairs at or above it enter
	// the collusion graph. Zero means 0.8; must lie in (0, 1].
	MinSimilarity float64
	// MinGroupSize is the smallest mined group that is reported (and
	// charged). Zero means 3; must be at least 2.
	MinGroupSize int
}

func (c Config) withDefaults() Config {
	if c.Metric == 0 {
		c.Metric = MetricPCC
	}
	if c.BucketDays == 0 {
		c.BucketDays = 10
	}
	if c.MinCoRatings == 0 {
		c.MinCoRatings = 3
	}
	if c.MinSimilarity == 0 {
		c.MinSimilarity = 0.8
	}
	if c.MinGroupSize == 0 {
		c.MinGroupSize = 3
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Metric != MetricPCC && c.Metric != MetricCosine {
		return fmt.Errorf("collusion: unknown metric %d", int(c.Metric))
	}
	if c.BucketDays <= 0 || math.IsNaN(c.BucketDays) || math.IsInf(c.BucketDays, 0) {
		return fmt.Errorf("collusion: bucket %g days", c.BucketDays)
	}
	if c.MinCoRatings < 2 {
		return fmt.Errorf("collusion: min co-ratings %d", c.MinCoRatings)
	}
	if c.MinSimilarity <= 0 || c.MinSimilarity > 1 || math.IsNaN(c.MinSimilarity) {
		return fmt.Errorf("collusion: min similarity %g outside (0,1]", c.MinSimilarity)
	}
	if c.MinGroupSize < 2 {
		return fmt.Errorf("collusion: min group size %d", c.MinGroupSize)
	}
	return nil
}

// Edge is one qualifying rater pair of the collusion graph (A < B).
type Edge struct {
	A, B rating.RaterID
	// Similarity is the configured metric over the pair's shared
	// residual cells, in [-1, 1] (edges require >= MinSimilarity).
	Similarity float64
	// Shared is the number of co-rated (object, bucket) cells.
	Shared int
}

// Group is one mined collusion group: a connected component of the
// thresholded graph with at least MinGroupSize members.
type Group struct {
	// Members are the group's raters, ascending.
	Members []rating.RaterID
	// Cohesion is the mean similarity over the group's edges, in
	// [MinSimilarity, 1].
	Cohesion float64
}

// Report is the outcome of one collusion-graph pass.
type Report struct {
	// Edges are the graph's qualifying pairs, sorted by (A, B).
	Edges []Edge
	// Groups are the mined groups, sorted by first member.
	Groups []Group
	// Suspicion maps each grouped rater to its suspicion mass in
	// [0, 1]: the mean similarity of the rater's in-group edges,
	// clamped at zero. Raters outside every group are absent.
	Suspicion map[rating.RaterID]float64
}

// cell identifies one co-rating cell.
type cell struct {
	obj    rating.ObjectID
	bucket int64
}

// profile is one rater's co-rating vector: mean residual per cell.
type profile struct {
	id    rating.RaterID
	cells map[cell]float64
}

// Detect builds the co-rating profiles over rs (any objects, any
// order), computes pairwise similarity for every rater pair sharing at
// least MinCoRatings cells, thresholds the pairs into a collusion
// graph, and mines groups as connected components. Malformed values
// (NaN/Inf times or values) are ignored rather than rejected, so the
// detector never fails a maintenance window.
func Detect(rs []rating.Rating, cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cfg = cfg.withDefaults()

	// Drop malformed records (NaN/Inf values or times) up front, then
	// canonicalize input order so the report is a pure function of the
	// rating multiset: the mean folds below accumulate floats in
	// whatever order ratings arrive, and addition does not commute at
	// the last ulp.
	sorted := make([]rating.Rating, 0, len(rs))
	for _, r := range rs {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) ||
			math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			continue
		}
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Rater != b.Rater {
			return a.Rater < b.Rater
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Value < b.Value
	})

	profiles := buildProfiles(sorted, cfg.BucketDays)
	edges := buildEdges(profiles, cfg)
	groups, suspicion := mineGroups(edges, cfg.MinGroupSize)
	return Report{Edges: edges, Groups: groups, Suspicion: suspicion}, nil
}

// buildProfiles folds rs into per-rater mean-residual vectors keyed by
// (object, time bucket). Residuals are against the cell's mean over
// all raters, so a whole cell agreeing with itself is not suspicious —
// only raters deviating from the cell consensus in the same direction
// correlate.
func buildProfiles(rs []rating.Rating, bucketDays float64) []profile {
	type cellAgg struct {
		sum float64
		n   int
	}
	cellMean := make(map[cell]*cellAgg)
	type raterCell struct {
		sum float64
		n   int
	}
	byRater := make(map[rating.RaterID]map[cell]*raterCell)
	for _, r := range rs {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) ||
			math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			continue
		}
		c := cell{obj: r.Object, bucket: int64(math.Floor(r.Time / bucketDays))}
		agg := cellMean[c]
		if agg == nil {
			agg = &cellAgg{}
			cellMean[c] = agg
		}
		agg.sum += r.Value
		agg.n++
		cells := byRater[r.Rater]
		if cells == nil {
			cells = make(map[cell]*raterCell)
			byRater[r.Rater] = cells
		}
		rc := cells[c]
		if rc == nil {
			rc = &raterCell{}
			cells[c] = rc
		}
		rc.sum += r.Value
		rc.n++
	}

	ids := make([]rating.RaterID, 0, len(byRater))
	for id := range byRater {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]profile, 0, len(ids))
	for _, id := range ids {
		cells := make(map[cell]float64, len(byRater[id]))
		for c, rc := range byRater[id] {
			agg := cellMean[c]
			cells[c] = rc.sum/float64(rc.n) - agg.sum/float64(agg.n)
		}
		out = append(out, profile{id: id, cells: cells})
	}
	return out
}

// buildEdges enumerates rater pairs that share cells (via an inverted
// cell → raters index, so disjoint raters are never paired), computes
// the configured similarity over each qualifying pair's shared cells
// in canonical cell order, and keeps pairs at or above the threshold.
func buildEdges(profiles []profile, cfg Config) []Edge {
	// index of profiles by position; the inverted index stores
	// positions so pair keys are cheap ints.
	byCell := make(map[cell][]int)
	for i, p := range profiles {
		for c := range p.cells {
			byCell[c] = append(byCell[c], i)
		}
	}
	// Count shared cells per pair. Profile positions ascend with rater
	// ID, so pair (i, j) with i < j is already canonical.
	type pairKey struct{ i, j int }
	shared := make(map[pairKey]int)
	for _, members := range byCell {
		// members is ascending: profiles were visited in ID order.
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				shared[pairKey{members[a], members[b]}]++
			}
		}
	}
	pairs := make([]pairKey, 0, len(shared))
	for k, n := range shared {
		if n >= cfg.MinCoRatings {
			pairs = append(pairs, k)
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})

	var edges []Edge
	var xs, ys []float64
	var cells []cell
	for _, k := range pairs {
		pi, pj := profiles[k.i], profiles[k.j]
		// Shared cells in canonical (object, bucket) order so the
		// similarity's float folds are schedule-free.
		cells = cells[:0]
		for c := range pi.cells {
			if _, ok := pj.cells[c]; ok {
				cells = append(cells, c)
			}
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].obj != cells[b].obj {
				return cells[a].obj < cells[b].obj
			}
			return cells[a].bucket < cells[b].bucket
		})
		xs, ys = xs[:0], ys[:0]
		for _, c := range cells {
			xs = append(xs, pi.cells[c])
			ys = append(ys, pj.cells[c])
		}
		var sim float64
		switch cfg.Metric {
		case MetricCosine:
			sim = Cosine(xs, ys)
		default:
			sim = Pearson(xs, ys)
		}
		if sim >= cfg.MinSimilarity {
			edges = append(edges, Edge{A: pi.id, B: pj.id, Similarity: sim, Shared: len(cells)})
		}
	}
	return edges
}

// mineGroups finds the connected components of the edge set with
// union-find, keeps those with at least minSize members, and assigns
// each grouped rater the mean similarity of its in-group edges as
// suspicion mass (clamped to [0, 1]).
func mineGroups(edges []Edge, minSize int) ([]Group, map[rating.RaterID]float64) {
	parent := make(map[rating.RaterID]rating.RaterID)
	var find func(rating.RaterID) rating.RaterID
	find = func(x rating.RaterID) rating.RaterID {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b rating.RaterID) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Smaller root wins, keeping components keyed deterministically.
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for _, e := range edges {
		union(e.A, e.B)
	}

	members := make(map[rating.RaterID][]rating.RaterID)
	for _, e := range edges {
		// Collect each rater once: an ID may appear in many edges.
		for _, id := range [2]rating.RaterID{e.A, e.B} {
			root := find(id)
			list := members[root]
			if len(list) == 0 || !slices.Contains(list, id) {
				members[root] = append(list, id)
			}
		}
	}

	roots := make([]rating.RaterID, 0, len(members))
	for root, list := range members {
		if len(list) >= minSize {
			roots = append(roots, root)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	suspicion := make(map[rating.RaterID]float64)
	var groups []Group
	for _, root := range roots {
		list := members[root]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		inGroup := make(map[rating.RaterID]bool, len(list))
		for _, id := range list {
			inGroup[id] = true
		}
		var cohesion float64
		edgeCount := 0
		perSum := make(map[rating.RaterID]float64, len(list))
		perN := make(map[rating.RaterID]int, len(list))
		for _, e := range edges {
			if !inGroup[e.A] || !inGroup[e.B] {
				continue
			}
			cohesion += e.Similarity
			edgeCount++
			perSum[e.A] += e.Similarity
			perN[e.A]++
			perSum[e.B] += e.Similarity
			perN[e.B]++
		}
		if edgeCount == 0 {
			continue // unreachable: every component member has an edge
		}
		groups = append(groups, Group{Members: list, Cohesion: cohesion / float64(edgeCount)})
		for _, id := range list {
			if perN[id] == 0 {
				continue
			}
			s := perSum[id] / float64(perN[id])
			if s < 0 {
				s = 0
			}
			if s > 1 {
				s = 1
			}
			suspicion[id] = s
		}
	}
	return groups, suspicion
}
