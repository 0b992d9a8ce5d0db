// Package api is the versioned v1 wire contract of the rating
// service: every request and response struct the HTTP handlers emit
// and the typed client consumes, plus the error envelope all non-2xx
// responses share. Handlers and client import these shapes from here
// — never declare ad-hoc per-handler structs — so a field rename is a
// single, reviewable change that the wire-contract golden tests
// (internal/server/contract_test.go) will flag loudly.
//
// Compatibility rules for v1:
//
//   - Existing fields keep their JSON names and types.
//   - New fields are additive and either optional in requests or
//     omitted-when-absent in responses (so default responses are
//     byte-identical across releases).
//   - Every non-2xx response body is an Error envelope.
package api

import "repro/internal/rating"

// RatingPayload is the wire form of one rating, used both in the
// unary submit batch (a JSON array of these) and as one NDJSON line
// of the streaming ingest endpoint.
type RatingPayload struct {
	Rater  int     `json:"rater"`
	Object int     `json:"object"`
	Value  float64 `json:"value"`
	Time   float64 `json:"time"`
}

// Rating converts the payload to the engine's rating type.
func (p RatingPayload) Rating() rating.Rating {
	return rating.Rating{
		Rater:  rating.RaterID(p.Rater),
		Object: rating.ObjectID(p.Object),
		Value:  p.Value,
		Time:   p.Time,
	}
}

// SubmitResponse reports how many ratings a unary submit accepted.
type SubmitResponse struct {
	Accepted int `json:"accepted"`
}

// ProcessRequest is the maintenance-window request body.
type ProcessRequest struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// ProcessResponse summarizes one maintenance pass. Degraded counts
// objects whose detector pass failed and fell back to filter-only
// evidence.
type ProcessResponse struct {
	Objects      int `json:"objects"`
	Observations int `json:"observations"`
	Suspicious   int `json:"suspiciousWindows"`
	Degraded     int `json:"degradedObjects"`
}

// AggregateResponse is the wire form of an object's trust-weighted
// aggregate.
type AggregateResponse struct {
	Object   int     `json:"object"`
	Value    float64 `json:"value"`
	Used     int     `json:"used"`
	Filtered int     `json:"filtered"`
	FellBack bool    `json:"fellBack"`
}

// TrustResponse is the wire form of a rater's trust.
type TrustResponse struct {
	Rater int     `json:"rater"`
	Trust float64 `json:"trust"`
}

// Page describes the slice of a paginated collection a response
// holds. It is present only when the request asked for pagination
// (limit or offset), so unpaginated responses keep their original
// shape.
type Page struct {
	// Total is the collection size before pagination.
	Total int `json:"total"`
	// Offset is the number of leading entries skipped.
	Offset int `json:"offset"`
	// Limit echoes the requested page size; 0 means unlimited.
	Limit int `json:"limit"`
}

// MaliciousResponse lists flagged raters in ascending ID order. Page
// is set only on paginated requests.
type MaliciousResponse struct {
	Raters []int `json:"raters"`
	Page   *Page `json:"page,omitempty"`
}

// TrustDistribution bins every tracked rater's trust into the
// requested sorted upper bounds. Counts are cumulative ("le"
// semantics): Counts[i] is the number of raters with trust <=
// Bounds[i].
type TrustDistribution struct {
	Bounds []float64 `json:"bounds"`
	Counts []int     `json:"counts"`
}

// StatsResponse summarizes the system's state. Distribution is set
// only when the request carried a bounds parameter.
type StatsResponse struct {
	Ratings      int                `json:"ratings"`
	Raters       int                `json:"raters"`
	Malicious    int                `json:"malicious"`
	Distribution *TrustDistribution `json:"trust_distribution,omitempty"`
}

// StreamLineError is one rejected line of a streaming ingest: the
// 1-based line number, the error code (an Error code), and a message.
// Accepted lines produce no output — a bulk stream's response traffic
// is proportional to its failures, not its size.
type StreamLineError struct {
	Line    int    `json:"line"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// StreamSummary is the final NDJSON line of a streaming ingest
// response. Lines counts physical input lines examined — blank lines
// included — so it maps 1:1 to the client's own framing and a client
// resumes an interrupted stream at line Lines+1. When the stream was
// cut short (a submit failure after acceptance started, an oversized
// line, or overload shedding), Code and Message carry the terminal
// error — with the backoff hint in RetryAfter seconds when Code is
// "overloaded" — and clients must treat lines after Lines as never
// examined.
type StreamSummary struct {
	Accepted   int     `json:"accepted"`
	Rejected   int     `json:"rejected"`
	Lines      int     `json:"lines"`
	Code       string  `json:"code,omitempty"`
	Message    string  `json:"message,omitempty"`
	RetryAfter float64 `json:"retry_after,omitempty"`
}

// Alert is one newly-flagged rater pushed by the streaming detection
// path. Seq positions the alert in the node's append-only alert log;
// clients resume a poll by passing the response's Next back as since.
type Alert struct {
	// Seq is the alert's position in the log, ascending from 1.
	Seq uint64 `json:"seq"`
	// Rater is the flagged rater.
	Rater int `json:"rater"`
	// Source names the detection path that flagged the rater:
	// "stream" (online AR detector) or "window" (authoritative
	// maintenance-window charging).
	Source string `json:"source"`
	// Suspicion is the evidence level at flag time; its meaning is
	// per-source (accrued stream suspicion or post-window trust).
	Suspicion float64 `json:"suspicion"`
	// FirstFlagged is the rating-clock time (days) of the evidence
	// that tripped the flag.
	FirstFlagged float64 `json:"first_flagged"`
	// WallNS is the wall-clock flag time in Unix nanoseconds; zero
	// (omitted) when the source does not track wall time.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// AlertsResponse is the long-poll alerts read. Alerts holds every
// alert with Seq > since (empty — never null — when the poll timed
// out); Next is the log's tail sequence, passed back as since to
// resume without gaps or duplicates.
type AlertsResponse struct {
	Alerts []Alert `json:"alerts"`
	Next   uint64  `json:"next"`
}

// HealthResponse is the liveness probe's body.
type HealthResponse struct {
	Status string `json:"status"`
}
