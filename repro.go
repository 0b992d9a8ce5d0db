// Package repro is a trust-enhanced online rating system with
// AR-signal-modeling detection of collaborative rating fraud — a
// from-scratch Go reproduction of Yang, Sun, Ren & Yang, "Building
// Trust in Online Rating Systems Through Signal Modeling" (ICDCS 2007).
//
// The core idea: ratings arriving over time are samples of a random
// process. Honest ratings behave like noise around the true quality,
// while a colluding clique — even one smart enough to keep its bias
// moderate so majority-rule filters cannot see it — injects a
// correlated, highly predictable "signal". Fitting an autoregressive
// model (covariance method) to each window of ratings and watching the
// normalized model error exposes the attack: the error collapses inside
// attacked windows (Procedure 1). Suspicion mass feeds a beta-function
// trust record per rater (Procedure 2), and aggregation weighs raters
// by trust above the neutral 0.5 (the paper's "Method 3"), so even
// undetected colluders lose influence.
//
// # Quick start
//
//	sys, err := repro.NewSystem(repro.Config{})
//	if err != nil { ... }
//	_ = sys.Submit(repro.Rating{Rater: 1, Object: 42, Value: 0.8, Time: 3.5})
//	// ... submit more ratings, then run a maintenance pass:
//	report, err := sys.ProcessWindow(0, 30) // days [0, 30)
//	agg, err := sys.Aggregate(42)           // trust-weighted rating
//	trust := sys.TrustIn(1)                 // (S+1)/(S+F+2)
//
// Standalone detection over one object's time-sorted ratings:
//
//	rep, err := repro.Detect(ratings, repro.DetectorConfig{})
//	for _, i := range rep.SuspiciousWindows() { ... }
//
// The subsystems (AR estimators, rating filters, trust models, workload
// generators, experiment runners) live under internal/ and are surfaced
// here through aliases; see DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-versus-measured record of every table
// and figure.
package repro

import (
	"repro/internal/api"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/filter"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/signal"
	"repro/internal/trust"
)

// Core data model.
type (
	// Rating is one score for one object by one rater at one time.
	Rating = rating.Rating
	// RaterID identifies a rater.
	RaterID = rating.RaterID
	// ObjectID identifies a rated object.
	ObjectID = rating.ObjectID
	// Window is a contiguous run of ratings with its covering interval.
	Window = rating.Window
)

// The assembled system (Fig 1 of the paper).
type (
	// System is the trust-enhanced rating system: filter + detector +
	// trust manager + trust-weighted aggregation.
	System = core.System
	// Config assembles a System; zero fields take the paper's defaults.
	Config = core.Config
	// ProcessReport summarizes one maintenance window.
	ProcessReport = core.ProcessReport
	// ObjectReport is the per-object outcome within a ProcessReport.
	ObjectReport = core.ObjectReport
	// AggregateResult is the outcome of aggregating one object.
	AggregateResult = core.AggregateResult
)

// NewSystem builds a System. The zero Config gives the paper's §IV
// pipeline: Beta filter (q = 0.1), covariance-method AR detector, beta
// trust with b = 1, and modified-weighted-average aggregation with a
// simple-average fallback.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// NoFallback disables the aggregation fallback; Aggregate then returns
// ErrNoTrustedRaters when every rater is at the trust floor.
var NoFallback = core.NoFallback

// SafeSystem is a mutex-guarded System for concurrent use (the HTTP
// service is built on it). It mirrors System's API and adds snapshot
// persistence under the lock.
type SafeSystem = core.SafeSystem

// NewSafeSystem builds a concurrency-safe System.
func NewSafeSystem(cfg Config) (*SafeSystem, error) { return core.NewSafeSystem(cfg) }

// Scheduler drives a System's maintenance on a fixed cadence: feed it
// the current time via AdvanceTo and it runs every complete window.
type Scheduler = core.Scheduler

// NewScheduler wraps sys with a maintenance window of width days
// starting at start.
func NewScheduler(sys *System, start, width float64) (*Scheduler, error) {
	return core.NewScheduler(sys, start, width)
}

// HTTP service over a SafeSystem (see cmd/ratingd for the daemon).
type (
	// Server exposes the system as a JSON-over-HTTP service; it
	// implements http.Handler.
	Server = server.Server
	// ServiceClient is the typed HTTP client for a Server.
	ServiceClient = server.Client
	// RatingPayload is the wire form of one rating.
	RatingPayload = api.RatingPayload
)

// NewServer builds the HTTP service.
func NewServer(cfg Config) (*Server, error) { return server.New(cfg) }

// NewServiceClient builds a client for a Server at base (e.g.
// "http://localhost:8080"); a nil *http.Client means the default.
var NewServiceClient = server.NewClient

// Procedure 1 — the AR signal-modeling detector.
type (
	// DetectorConfig parameterizes Detect; the zero value selects the
	// paper's defaults (50-rating windows, order 4).
	DetectorConfig = detector.Config
	// DetectionReport is the outcome of one detection run.
	DetectionReport = detector.Report
	// WindowReport is the per-window outcome.
	WindowReport = detector.WindowReport
	// RaterStats aggregates per-rater suspicion over one run.
	RaterStats = detector.RaterStats
	// WindowMode selects count- or time-based windowing.
	WindowMode = detector.WindowMode
)

// Window modes for DetectorConfig.
const (
	WindowByCount = detector.WindowByCount
	WindowByTime  = detector.WindowByTime
)

// Detect runs Procedure 1 over one object's time-sorted ratings.
func Detect(rs []Rating, cfg DetectorConfig) (DetectionReport, error) {
	return detector.Detect(rs, cfg)
}

// WhitenessConfig parameterizes the Ljung-Box baseline detector.
type WhitenessConfig = detector.WhitenessConfig

// DetectWhiteness is the whiteness-test baseline detector: the
// textbook rendering of the paper's "honest ratings are white noise"
// premise. It mostly misses the smart attack (see ablation-whiteness);
// it exists for comparison.
func DetectWhiteness(rs []Rating, cfg WhitenessConfig) (DetectionReport, error) {
	return detector.DetectWhiteness(rs, cfg)
}

// MergeDetections accumulates per-rater statistics across per-object
// reports (the paper's multi-object extension of Procedure 1).
func MergeDetections(reports ...DetectionReport) map[RaterID]RaterStats {
	return detector.Merge(reports...)
}

// DetectorStream is the online form of Procedure 1: push ratings as
// they arrive and receive window reports at each count-window boundary,
// with identical results to batch Detect.
type DetectorStream = detector.Stream

// NewDetectorStream builds a streaming detector (count windows only).
func NewDetectorStream(cfg DetectorConfig) (*DetectorStream, error) {
	return detector.NewStream(cfg)
}

// AR model estimation (the signal substrate), for direct use.
type (
	// ARModel is a fitted all-pole model with its normalized error.
	ARModel = signal.Model
	// AROptions selects the estimator and preprocessing.
	AROptions = signal.Options
	// ARMethod identifies an AR estimator.
	ARMethod = signal.Method
)

// AR estimators.
const (
	ARCovariance = signal.MethodCovariance
	ARYuleWalker = signal.MethodYuleWalker
	ARBurg       = signal.MethodBurg
)

// FitAR estimates an AR(order) model of x. The covariance method (the
// paper's choice) is the default.
func FitAR(x []float64, order int, opts AROptions) (ARModel, error) {
	return signal.Fit(x, order, opts)
}

// Order-selection criteria for SelectAROrder.
type (
	// ARCriterion scores candidate model orders.
	ARCriterion = signal.Criterion
	// AROrderScore is one candidate order's fit and score.
	AROrderScore = signal.OrderScore
)

// Order-selection criteria.
const (
	ARCriterionFPE = signal.CriterionFPE
	ARCriterionAIC = signal.CriterionAIC
	ARCriterionMDL = signal.CriterionMDL
)

// SelectAROrder fits orders 1..maxOrder and returns the criterion
// minimizer plus every candidate, for detector tuning.
func SelectAROrder(x []float64, maxOrder int, criterion ARCriterion, opts AROptions) (AROrderScore, []AROrderScore, error) {
	return signal.SelectOrder(x, maxOrder, criterion, opts)
}

// ARStability analyzes a(1..p) with the step-down recursion: stable iff
// every recovered reflection coefficient has magnitude below one.
func ARStability(coeffs []float64) (stable bool, reflection []float64, err error) {
	return signal.Stability(coeffs)
}

// Adversarial attack strategies (internal/attack): campaign planners
// used by the ablation-attacks robustness study and available for
// red-teaming deployments.
type (
	// AttackStrategy plans a collusion campaign.
	AttackStrategy = attack.Strategy
	// AttackParams shape a campaign.
	AttackParams = attack.Params
	// AttackQuality answers an object's true quality at a time, so
	// camouflage phases can rate honestly.
	AttackQuality = attack.Quality
)

// AttackStrategies returns every implemented strategy, the paper's
// type-2 baseline first.
func AttackStrategies() []AttackStrategy { return attack.All() }

// Rating filters (feature extraction I and baselines).
type (
	// Filter partitions raw ratings into normal and abnormal.
	Filter = filter.Filter
	// FilterResult is a filter's partition of a batch.
	FilterResult = filter.Result
	// BetaFilter is the Whitby-Jøsang-Indulska filter the paper's
	// system uses (sensitivity Q, §IV runs 0.1).
	BetaFilter = filter.Beta
	// NoopFilter accepts everything.
	NoopFilter = filter.Noop
	// QuantileFilter trims the empirical tails.
	QuantileFilter = filter.Quantile
	// EntropyFilter is the Weng-Miao-Goh entropy baseline.
	EntropyFilter = filter.Entropy
	// EndorsementFilter is the Chen-Singh endorsement baseline.
	EndorsementFilter = filter.Endorsement
	// ClusterFilter is the Dellarocas clustering baseline.
	ClusterFilter = filter.Cluster
)

// Trust management (Procedure 2) and aggregation methods.
type (
	// TrustConfig parameterizes the trust manager.
	TrustConfig = trust.ManagerConfig
	// TrustManager maintains beta-function trust records.
	TrustManager = trust.Manager
	// TrustRecord is one rater's (S, F) evidence state.
	TrustRecord = trust.Record
	// Observation is one maintenance interval's evidence on a rater.
	Observation = trust.Observation
	// Recommendation is a rater's statement about another rater.
	Recommendation = trust.Recommendation
	// Aggregator combines ratings and trust into one value.
	Aggregator = trust.Aggregator
	// SimpleAverage is Method 1.
	SimpleAverage = trust.SimpleAverage
	// BetaAggregation is Method 2 (Jøsang-Ismail beta reputation).
	BetaAggregation = trust.BetaAggregation
	// ModifiedWeightedAverage is Method 3, the paper's pick.
	ModifiedWeightedAverage = trust.ModifiedWeightedAverage
	// TrustWeightedBeta is Method 4 (the trust model of Sun et al.).
	TrustWeightedBeta = trust.TrustWeightedBeta
)

// NewTrustManager builds a standalone trust manager (Procedure 2
// without the rest of the pipeline).
func NewTrustManager(cfg TrustConfig) (*TrustManager, error) {
	return trust.NewManager(cfg)
}

// AggregationMethods returns the paper's four aggregators in M1..M4
// table order.
func AggregationMethods() []Aggregator { return trust.Methods() }

// EntropyTrust maps a trust probability to the entropy trust value of
// Sun et al. ([8]): 1−H(p) above neutral, H(p)−1 below.
func EntropyTrust(p float64) float64 { return trust.EntropyTrust(p) }

// Common error values, re-exported for errors.Is matching.
var (
	// ErrNoTrustedRaters is returned by trust-weighted aggregators when
	// every rater is at or below the trust floor.
	ErrNoTrustedRaters = trust.ErrNoTrustedRaters
	// ErrNoRatings is returned for empty aggregation batches.
	ErrNoRatings = trust.ErrNoRatings
	// ErrUnknownObject is returned for objects with no ratings.
	ErrUnknownObject = rating.ErrUnknownObject
)

// Subjective-logic opinion algebra (the formal backbone of the beta
// reputation system [30]).
type (
	// Opinion is a (belief, disbelief, uncertainty, base-rate) tuple.
	Opinion = trust.Opinion
	// SubjectiveLogicAggregation is the extension aggregator built on
	// discounting + consensus (shares Method 4's weakness; see the
	// trust-floor ablation).
	SubjectiveLogicAggregation = trust.SubjectiveLogicAggregation
)

// Opinion constructors and operators.
var (
	// OpinionFromEvidence maps (S, F) observations to an opinion.
	OpinionFromEvidence = trust.OpinionFromEvidence
	// OpinionFromRating maps one [0,1] rating to a one-observation
	// opinion.
	OpinionFromRating = trust.OpinionFromRating
	// DiscountOpinion is Jøsang's discounting operator.
	DiscountOpinion = trust.Discount
	// ConsensusOpinion is Jøsang's consensus operator.
	ConsensusOpinion = trust.Consensus
)
