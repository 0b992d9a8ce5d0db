// Package server exposes the trust-enhanced rating system as a small
// JSON-over-HTTP service — the deployment shape a marketplace backend
// would actually consume. It fronts a Backend that is safe under
// concurrent requests: a shard.Engine, or a cluster router.
//
// Endpoints (v1) — request/response shapes live in internal/api:
//
//	POST /v1/ratings              submit one rating batch (JSON array)
//	POST /v1/ratings:stream       bulk NDJSON ingest, streamed results
//	POST /v1/process              run a maintenance window {start,end}
//	GET  /v1/objects/{id}/aggregate   trust-weighted aggregate
//	GET  /v1/raters/{id}/trust        rater trust value
//	GET  /v1/malicious[?limit=&offset=]  raters below the trust threshold
//	GET  /v1/stats[?bounds=...]       state summary (+trust distribution)
//	GET  /v1/alerts[?since=&wait=]    long-poll detection alerts
//	GET  /v1/snapshot                 download the full state
//	PUT  /v1/snapshot                 replace the full state
//	GET  /healthz                     liveness
//
// Every non-2xx response is an api.Error envelope {code, message,
// retry_after?}; the code catalogue is documented in internal/api.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/trust"
)

// Backend is the state engine a Server fronts: a shard.Engine, or
// the cluster router that fans out to members serving one. Handlers
// only need this surface, so the wire format and routes are identical
// for every deployment shape.
type Backend interface {
	SubmitAll(rs []rating.Rating) error
	Len() int
	ProcessWindow(start, end float64) (core.ProcessReport, error)
	Aggregate(obj rating.ObjectID) (core.AggregateResult, error)
	TrustIn(id rating.RaterID) float64
	TrustDistribution(bounds []float64) []int
	RaterCount() int
	MaliciousRaters() []rating.RaterID
	WriteSnapshot(w io.Writer) error
	LoadSnapshot(r io.Reader) error
}

// Journal orders durable logging against in-memory application: a
// daemon that write-ahead-logs mutations implements it so that "append
// to the log" and "apply to the system" happen atomically with respect
// to snapshots (see cmd/ratingd). Every mutating endpoint goes through
// the server's journal; a server built without WithJournal writes
// through a default one that applies straight to the backend.
type Journal interface {
	// SubmitAll logs and applies a batch of pre-validated ratings.
	SubmitAll(rs []rating.Rating) error
	// ProcessWindow logs and runs one maintenance window.
	ProcessWindow(start, end float64) (core.ProcessReport, error)
	// Restore replaces the state with a snapshot and rebases the log.
	Restore(r io.Reader) error
}

// directJournal is the journal of a server built without WithJournal:
// nothing is logged, so mutations apply straight to the backend.
type directJournal struct{ Backend }

func (j directJournal) Restore(r io.Reader) error { return j.LoadSnapshot(r) }

// AsyncSubmitter is the optional streaming extension of a Journal: a
// submit that returns once the batch is enqueued (values copied) plus
// a wait for its durable flush. The stream endpoint uses it to decode
// the next NDJSON batch while the previous one group-commits; the
// sharded journal implements it over the Router.
type AsyncSubmitter interface {
	// SubmitAsync enqueues the batch and returns a wait function that
	// blocks until the batch is logged and applied. The slice may be
	// reused once SubmitAsync returns.
	SubmitAsync(rs []rating.Rating) (wait func() error, err error)
}

// ErrUnavailable marks a backend failure that should surface as a
// typed 503 rather than a 500: a cluster router wraps member
// transport errors with it so the handlers shed the unreachable range
// instead of reporting an internal fault.
var ErrUnavailable = errors.New("backend unavailable")

// streamPath is the bulk-ingest route; exempt from the whole-body
// size cap and the whole-request timeout (streams are bounded per
// line and per read instead — see stream.go).
const streamPath = "/v1/ratings:stream"

// Server is the HTTP facade over one rating system.
type Server struct {
	sys     Backend
	mux     *http.ServeMux
	handler http.Handler

	// journal, replica, alerts, cluster and features can be swapped at
	// runtime (promotion flips a follower into a primary on a live
	// server); jmu guards all five.
	jmu      sync.RWMutex
	journal  Journal
	replica  func() ReplicaInfo
	alerts   AlertSource
	cluster  ClusterView
	features api.DiscoveryFeatures

	dedupe     *dedupeCache
	cache      *readCache
	admission  *admission
	maxBody    int64
	reqTimeout time.Duration
	metrics    *serverMetrics

	streamBatch int // ratings per group-commit batch on the stream path
}

// Option customizes a Server.
type Option func(*Server)

// WithJournal routes mutations through j (write-ahead logging).
func WithJournal(j Journal) Option { return func(s *Server) { s.journal = j } }

// WithTelemetry registers the server's HTTP metrics (per-endpoint
// request counts, latencies, status codes, idempotency-cache hits,
// read-cache hit/miss families, admission counters) on reg and
// enables per-request instrumentation. A nil registry leaves the
// server uninstrumented.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.metrics = newServerMetrics(reg) }
}

// WithMaxBodyBytes caps request bodies; n <= 0 keeps the default
// (8 MiB). The streaming ingest route is exempt (it is bounded per
// line, not per body).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithRequestTimeout bounds each request's handling time; 0 disables
// the per-request timeout.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithDedupeCapacity sizes the idempotency cache (default 1024
// request IDs).
func WithDedupeCapacity(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.dedupe = newDedupeCache(n)
		}
	}
}

// WithReadCache sizes the aggregate/malicious read cache (default
// 4096 objects). n < 0 disables caching entirely; cached responses
// are bit-identical to uncached ones (see readcache.go), so this is a
// memory/latency trade only.
func WithReadCache(n int) Option {
	return func(s *Server) {
		if n < 0 {
			s.cache = nil
			return
		}
		if n == 0 {
			n = defaultReadCacheObjects
		}
		s.cache = newReadCache(n)
	}
}

// WithAdmission installs admission control on the mutating routes
// (see AdmissionConfig). A zero MaxConcurrent disables it.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.admission = newAdmission(cfg) }
}

// WithStreamBatch sets how many ratings the stream endpoint coalesces
// per group-commit submit (default 512).
func WithStreamBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.streamBatch = n
		}
	}
}

// New builds a Server around cfg with a one-shard shard.Engine
// backend, which scores exactly like a core.System.
func New(cfg core.Config, opts ...Option) (*Server, error) {
	engine, err := shard.NewEngine(cfg, 1)
	if err != nil {
		return nil, err
	}
	return NewWith(engine, opts...)
}

// NewWith builds a Server around an existing backend — the way a
// sharded deployment fronts a shard.Engine.
func NewWith(backend Backend, opts ...Option) (*Server, error) {
	if backend == nil {
		return nil, errors.New("server: nil backend")
	}
	s := &Server{
		sys:         backend,
		mux:         http.NewServeMux(),
		dedupe:      newDedupeCache(1024),
		cache:       newReadCache(defaultReadCacheObjects),
		maxBody:     8 << 20,
		streamBatch: 512,
		features:    api.DiscoveryFeatures{StreamIngest: true},
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.journal == nil {
		s.journal = directJournal{backend}
	}
	s.routes()

	// Middleware, outermost first: panic containment (a handler bug
	// 500s one request instead of killing the daemon), then — for every
	// route but the stream — body limits and the per-request timeout.
	// Bulk ingest is legitimately long-lived and bounded per line (size
	// cap) and per read (idle deadline) instead, so it bypasses both: a
	// whole-request timeout would buffer the streamed response and cut
	// any ingest longer than the budget with a static 503, making the
	// resume-from-Lines protocol impossible (see stream.go).
	var inner http.Handler = s.mux
	if s.reqTimeout > 0 {
		inner = http.TimeoutHandler(inner, s.reqTimeout, timeoutBody)
	}
	limit := s.maxBody
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == streamPath {
			s.mux.ServeHTTP(w, r)
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		if r.URL.Path == alertsPath {
			// A long poll legitimately outlives the per-request budget;
			// its wait parameter is clamped server-side instead.
			s.mux.ServeHTTP(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})
	// The replica and cluster gates sit outside the body/timeout stack
	// (they answer from sampled state without reading the body) but
	// inside panic containment; the version stamp is outermost so even
	// a timeout 503 or panic 500 carries X-Api-Version.
	s.handler = recoverPanics(stampVersion(s.replicaGate(s.clusterGate(h))))
	return s, nil
}

// timeoutBody is the envelope http.TimeoutHandler writes on a 503 cut
// — a static string by necessity, kept in the api.Error shape.
const timeoutBody = `{"code":"timeout","message":"request timed out"}`

// recoverPanics converts a handler panic into a 500 for that request,
// keeping the daemon alive.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity
					panic(v)
				}
				writeErrorCode(w, r, http.StatusInternalServerError, api.CodeInternal,
					fmt.Errorf("internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// System exposes the underlying backend (for preloading state in
// tools and tests).
func (s *Server) System() Backend { return s.sys }

var _ http.Handler = (*Server)(nil)

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) routes() {
	// Each route is wrapped with its own telemetry label; observe is
	// the identity when no registry is installed. Mutating routes pass
	// admission control before touching the idempotency cache, so an
	// overloaded server sheds without consuming dedupe slots.
	s.mux.HandleFunc("POST /v1/ratings", s.observe("/v1/ratings", s.admit(s.idempotent(s.handleSubmit))))
	// The stream route is not wrapped in admit: one token held for the
	// whole lifetime of a bulk stream would starve unary mutations.
	// The handler acquires and releases a token per flushed batch
	// instead (see handleSubmitStream).
	s.mux.HandleFunc("POST "+streamPath, s.observe(streamPath, s.handleSubmitStream))
	s.mux.HandleFunc("POST /v1/process", s.observe("/v1/process", s.admit(s.idempotent(s.handleProcess))))
	s.mux.HandleFunc("GET /v1/objects/{id}/aggregate", s.observe("/v1/objects/{id}/aggregate", s.handleAggregate))
	s.mux.HandleFunc("GET /v1/raters/{id}/trust", s.observe("/v1/raters/{id}/trust", s.handleTrust))
	s.mux.HandleFunc("GET /v1/malicious", s.observe("/v1/malicious", s.handleMalicious))
	s.mux.HandleFunc("GET /v1/stats", s.observe("/v1/stats", s.handleStats))
	s.mux.HandleFunc("GET "+alertsPath, s.observe(alertsPath, s.handleAlerts))
	s.mux.HandleFunc("GET /v1/snapshot", s.observe("/v1/snapshot", s.handleSnapshotGet))
	s.mux.HandleFunc("PUT /v1/snapshot", s.observe("/v1/snapshot", s.admit(s.handleSnapshotPut)))
	s.mux.HandleFunc("GET /v1", s.observe("/v1", s.handleDiscovery))
	s.mux.HandleFunc("GET /v1/cluster", s.observe("/v1/cluster", s.handleCluster))
	s.mux.HandleFunc("GET /healthz", s.observe("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
	}))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is a JSON array of ratings; a single rating is a
	// one-element array.
	var batch []api.RatingPayload
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(w, r, bodyErrStatus(err), fmt.Errorf("decode ratings: %w", err))
		return
	}
	// Validate up front so acceptance is all-or-nothing: nothing is
	// journaled or applied unless the whole batch is well-formed.
	rs := make([]rating.Rating, len(batch))
	for i, p := range batch {
		rs[i] = p.Rating()
		if err := rs[i].Validate(); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("rating %d: %w", i, err))
			return
		}
	}
	// Ownership is all-or-nothing like validation: a batch touching an
	// unowned object is refused whole with the owner's URL, before
	// anything is journaled.
	for _, rt := range rs {
		if !s.checkOwnership(w, r, rt.Object) {
			return
		}
	}
	if err := s.getJournal().SubmitAll(rs); err != nil {
		// Durability is unavailable; refuse the write so the client
		// retries rather than accepting state a crash would silently
		// lose.
		writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("journal: %w", err))
		return
	}
	s.cache.invalidateRatings(rs)
	writeJSON(w, http.StatusOK, api.SubmitResponse{Accepted: len(rs)})
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	var req api.ProcessRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, bodyErrStatus(err), fmt.Errorf("decode process request: %w", err))
		return
	}
	if req.End <= req.Start {
		// Reject before journaling so the WAL only sees windows that
		// will replay successfully.
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("process window [%g,%g)", req.Start, req.End))
		return
	}
	if s.getCluster() != nil {
		// A member scanning only its owned range must never charge its
		// replicated trust state locally — the fold needs every node's
		// evidence. Windows run through the router's scan/apply
		// orchestration.
		writeEnvelope(w, r, http.StatusConflict, api.NewError(api.CodeConflict,
			"this node is a cluster member; maintenance windows run through the cluster router"))
		return
	}
	rep, err := s.getJournal().ProcessWindow(req.Start, req.End)
	if err != nil {
		writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("journal: %w", err))
		return
	}
	// A window rewrites trust, which feeds every aggregate and the
	// malicious list: drop the whole read cache.
	s.cache.invalidateAll()
	resp := api.ProcessResponse{
		Objects:      len(rep.Objects),
		Observations: len(rep.Observations),
		Degraded:     len(rep.DegradedObjects()),
	}
	for _, obj := range rep.Objects {
		resp.Suspicious += len(obj.Detection.SuspiciousWindows())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("object id: %w", err))
		return
	}
	obj := rating.ObjectID(id)
	if !s.checkOwnership(w, r, obj) {
		return
	}
	agg, ok := s.cache.aggregate(obj, s.metrics)
	if !ok {
		gen := s.cache.snapshotGen(obj)
		agg, err = s.sys.Aggregate(obj)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, rating.ErrUnknownObject):
				status = http.StatusNotFound
			case errors.Is(err, trust.ErrNoTrustedRaters), errors.Is(err, trust.ErrNoRatings):
				status = http.StatusConflict
			case errors.Is(err, ErrUnavailable):
				status = http.StatusServiceUnavailable
			}
			writeError(w, r, status, err)
			return
		}
		s.cache.storeAggregate(obj, agg, gen)
	}
	writeJSON(w, http.StatusOK, api.AggregateResponse{
		Object:   int(agg.Object),
		Value:    agg.Value,
		Used:     agg.Used,
		Filtered: agg.Filtered,
		FellBack: agg.FellBack,
	})
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("rater id: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, api.TrustResponse{
		Rater: id,
		Trust: s.sys.TrustIn(rating.RaterID(id)),
	})
}

func (s *Server) handleMalicious(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limitS, offsetS := q.Get("limit"), q.Get("offset")
	paginated := limitS != "" || offsetS != ""
	limit, offset := 0, 0
	var err error
	if limitS != "" {
		if limit, err = strconv.Atoi(limitS); err != nil || limit < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("limit %q: must be a non-negative integer", limitS))
			return
		}
	}
	if offsetS != "" {
		if offset, err = strconv.Atoi(offsetS); err != nil || offset < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("offset %q: must be a non-negative integer", offsetS))
			return
		}
	}

	// point_lo/point_hi restrict the answer to raters whose keyspace
	// point falls in [lo, hi) — the scatter-gather partition a cluster
	// router uses so members answer disjoint slices of the replicated
	// rater set. Absent both, the full list is returned.
	loS, hiS := q.Get("point_lo"), q.Get("point_hi")
	pointFiltered := loS != "" || hiS != ""
	var pointLo, pointHi uint64
	if pointFiltered {
		if loS == "" || hiS == "" {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("point_lo and point_hi must be given together"))
			return
		}
		if pointLo, err = strconv.ParseUint(loS, 10, 32); err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("point_lo %q: must be a uint32", loS))
			return
		}
		if pointHi, err = strconv.ParseUint(hiS, 10, 64); err != nil || pointHi > 1<<32 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("point_hi %q: must be an integer in [0,2^32]", hiS))
			return
		}
	}

	ids, ok := s.cache.malicious(s.metrics)
	if !ok {
		gen := s.cache.snapshotGlobalGen()
		ids = s.sys.MaliciousRaters()
		s.cache.storeMalicious(ids, gen)
	}
	if pointFiltered {
		kept := make([]rating.RaterID, 0, len(ids))
		for _, id := range ids {
			if p := uint64(shard.RaterPoint(id)); p >= pointLo && p < pointHi {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	total := len(ids)
	// The IDs are sorted ascending (trust.Manager.Malicious), so a
	// page is a stable window of the collection between mutations.
	page := ids
	if paginated {
		if offset > len(page) {
			page = nil
		} else {
			page = page[offset:]
		}
		if limit > 0 && limit < len(page) {
			page = page[:limit]
		}
	}
	resp := api.MaliciousResponse{Raters: make([]int, 0, len(page))}
	for _, id := range page {
		resp.Raters = append(resp.Raters, int(id))
	}
	if paginated {
		resp.Page = &api.Page{Total: total, Offset: offset, Limit: limit}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ParseBounds parses the stats endpoint's bounds parameter — a
// comma-separated, strictly increasing list of trust upper bounds in
// (0, 1] — for callers that replicate the stats surface (the cluster
// router's merged handler).
func ParseBounds(s string) ([]float64, error) { return parseBounds(s) }

// parseBounds parses the stats endpoint's bounds parameter: a
// comma-separated, strictly increasing list of trust upper bounds in
// (0, 1].
func parseBounds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	bounds := make([]float64, 0, len(parts))
	prev := 0.0
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bounds %q: %w", s, err)
		}
		if v <= prev || v > 1 {
			return nil, fmt.Errorf("bounds %q: values must be strictly increasing in (0,1]", s)
		}
		bounds = append(bounds, v)
		prev = v
	}
	return bounds, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := api.StatsResponse{
		Ratings:   s.sys.Len(),
		Raters:    s.sys.RaterCount(),
		Malicious: len(s.sys.MaliciousRaters()),
	}
	if boundsS := r.URL.Query().Get("bounds"); boundsS != "" {
		bounds, err := parseBounds(boundsS)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		resp.Distribution = &api.TrustDistribution{
			Bounds: bounds,
			Counts: s.sys.TrustDistribution(bounds),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.sys.WriteSnapshot(w); err != nil {
		// Headers are already out; nothing better to do than log-level
		// truncation, which the client sees as a broken body.
		return
	}
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	if err := s.getJournal().Restore(r.Body); err != nil {
		writeError(w, r, bodyErrStatus(err), err)
		return
	}
	// The restored state shares nothing with the cached one.
	s.cache.invalidateAll()
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the envelope with the status's default code.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeErrorCode(w, r, status, api.CodeForStatus(status), err)
}

// writeErrorCode emits the api.Error envelope for this failure.
func writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	writeEnvelope(w, r, status, api.NewError(code, "%s", err.Error()))
}

// writeEnvelope stamps the request's attribution ID onto the envelope
// and emits it. Every error path funnels through here, so request_id
// echoes uniformly on all envelopes (r may be nil on paths with no
// request in hand).
func writeEnvelope(w http.ResponseWriter, r *http.Request, status int, e *api.Error) {
	if r != nil {
		if rid := r.Header.Get(api.RequestIDHeader); rid != "" {
			e.RequestID = rid
		}
	}
	writeJSON(w, status, e)
}

// bodyErrStatus distinguishes an over-limit body (413) from ordinary
// malformed input (400).
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
