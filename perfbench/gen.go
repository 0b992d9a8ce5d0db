package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/attack"
	"repro/internal/randx"
	"repro/internal/rating"
)

// population fixes what every stream of one workload shares: object
// popularity, object quality and the rater pool. Popularity is Zipf
// over ranks with a flattened head, P(rank k) ∝ (zipfV+k)^-zipfS: a
// few dozen objects share the heat, so no single object's ratings
// decide a run's figures. A seeded permutation maps ranks to object
// IDs so hot objects land on both shards.
type population struct {
	objects, raters int
	rankToObj       []rating.ObjectID
	quality         map[rating.ObjectID]float64
}

const (
	zipfS = 1.1
	zipfV = 20
)

func newPopulation(seed int64, objects, raters int) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{
		objects:   objects,
		raters:    raters,
		rankToObj: make([]rating.ObjectID, objects),
		quality:   make(map[rating.ObjectID]float64, objects),
	}
	for i, j := range rng.Perm(objects) {
		obj := rating.ObjectID(j + 1)
		p.rankToObj[i] = obj
		p.quality[obj] = 0.2 + 0.6*rng.Float64()
	}
	return p
}

// ratingGen is one deterministic arrival stream: rating-clock time
// advances with arrival (perDay ratings per day) plus sub-day jitter,
// and a small share of ratings is backdated by one to five weeks so
// the store sees out-of-order merges, not only appends.
type ratingGen struct {
	pop      *population
	rng      *rand.Rand
	zipf     *rand.Zipf
	perDay   float64
	start    float64
	backdate float64
	n        int64
}

func (p *population) stream(seed int64, perDay, start float64) *ratingGen {
	rng := rand.New(rand.NewSource(seed))
	return &ratingGen{
		pop:      p,
		rng:      rng,
		zipf:     rand.NewZipf(rng, zipfS, zipfV, uint64(p.objects-1)),
		perDay:   perDay,
		start:    start,
		backdate: 0.02,
	}
}

// object draws an object by popularity.
func (g *ratingGen) object() rating.ObjectID { return g.pop.rankToObj[g.zipf.Uint64()] }

// rater draws a rater uniformly from the honest pool.
func (g *ratingGen) rater() rating.RaterID { return rating.RaterID(1 + g.rng.Intn(g.pop.raters)) }

func (g *ratingGen) next() rating.Rating {
	obj := g.object()
	t := g.start + float64(g.n)/g.perDay + 0.9*g.rng.Float64()
	if g.rng.Float64() < g.backdate {
		t = math.Max(0, t-7-28*g.rng.Float64())
	}
	g.n++
	return rating.Rating{
		Rater:  g.rater(),
		Object: obj,
		Value:  randx.Quantize(g.pop.quality[obj]+0.15*g.rng.NormFloat64(), 11, true),
		Time:   t,
	}
}

func (g *ratingGen) take(n int) []rating.Rating {
	out := make([]rating.Rating, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// firstColluder keeps campaign identities disjoint from honest raters.
const firstColluder = 1_000_000

// campaigns plans unfair-rating campaigns from the adversary zoo
// against a few popular objects, spread over [0, span) days, so
// Procedure 1 has windows to flag and Procedure 2 raters to charge.
func (p *population) campaigns(seed int64, span float64, count int) ([]rating.Rating, error) {
	strategies := []attack.Strategy{attack.Constant{}, attack.Camouflage{HonestVariance: 0.2}, attack.Ramp{}}
	rng := rand.New(rand.NewSource(seed))
	var out []rating.Rating
	for i := 0; i < count; i++ {
		obj := p.rankToObj[i%min(p.objects, 20)]
		start := rng.Float64() * span * 0.8
		params := attack.Params{
			Object:     obj,
			Start:      start,
			End:        math.Min(span, start+20+20*rng.Float64()),
			Rate:       15,
			Bias:       0.35,
			Variance:   0.01,
			Colluders:  25,
			FirstRater: rating.RaterID(firstColluder + 100*i),
		}
		q := p.quality[obj]
		planned, err := strategies[i%len(strategies)].Plan(seed+int64(i), params,
			func(rating.ObjectID, float64) float64 { return q })
		if err != nil {
			return nil, err
		}
		for _, lr := range planned {
			out = append(out, lr.Rating)
		}
	}
	return out, nil
}

// history is a prepared workload's recorded past: honest arrivals over
// span days plus any campaigns, in time order as a live system would
// have received them.
func (p *population) history(seed int64, n int, span float64, campaigns int) ([]rating.Rating, error) {
	rs := p.stream(seed, float64(n)/span, 0).take(n)
	if campaigns > 0 {
		unfair, err := p.campaigns(seed+1, span, campaigns)
		if err != nil {
			return nil, err
		}
		rs = append(rs, unfair...)
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
	return rs, nil
}
