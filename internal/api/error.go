package api

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Error codes of the v1 surface. The catalogue is closed: handlers
// must pick one of these, and the contract tests reject envelopes
// carrying a code outside it. Clients switch on Code, never on the
// human-readable Message.
const (
	// CodeBadRequest: the request is malformed — undecodable body,
	// invalid rating, bad path or query parameter. Retrying cannot
	// help.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the referenced object or resource does not exist.
	CodeNotFound = "not_found"
	// CodeConflict: the state cannot answer the request (e.g. an
	// aggregate over an object with no usable ratings).
	CodeConflict = "conflict"
	// CodePayloadTooLarge: the request body exceeded the server's
	// size limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: admission control shed the request; retry after
	// RetryAfter seconds.
	CodeOverloaded = "overloaded"
	// CodeTimeout: the request exceeded the server's per-request
	// handling deadline.
	CodeTimeout = "timeout"
	// CodeUnavailable: a dependency (journal, leader execution) was
	// unavailable; the mutation was not applied and a retry is safe.
	CodeUnavailable = "unavailable"
	// CodeInternal: a handler bug; the request's effect is unknown.
	CodeInternal = "internal"
	// CodeReplicaStale: the node is a read replica whose lag exceeds
	// its -max-lag bound; reads here could be arbitrarily stale. Retry
	// here later or read from the primary.
	CodeReplicaStale = "replica_stale"
	// CodeNotPrimary: the node is a read replica and cannot accept
	// mutations; the envelope's Primary field carries the primary's
	// URL when known. Re-issue the request there.
	CodeNotPrimary = "not_primary"
	// CodeWrongNode: the node is a cluster member that does not own
	// the request's keyspace point; the envelope's Owner field carries
	// the owning node's base URL. Re-issue the request there (the
	// typed client follows automatically, capped hops).
	CodeWrongNode = "wrong_node"
	// CodeStaleEpoch: the request pinned a cluster routing-table epoch
	// (X-Cluster-Epoch) that does not match the node's table. The
	// sender's view of ownership is stale; refresh from GET /v1/cluster
	// before retrying.
	CodeStaleEpoch = "stale_epoch"
)

// knownCodes is the closed catalogue.
var knownCodes = map[string]bool{
	CodeBadRequest:      true,
	CodeNotFound:        true,
	CodeConflict:        true,
	CodePayloadTooLarge: true,
	CodeOverloaded:      true,
	CodeTimeout:         true,
	CodeUnavailable:     true,
	CodeInternal:        true,
	CodeReplicaStale:    true,
	CodeNotPrimary:      true,
	CodeWrongNode:       true,
	CodeStaleEpoch:      true,
}

// KnownCode reports whether code is in the v1 catalogue.
func KnownCode(code string) bool { return knownCodes[code] }

// Error is the envelope every non-2xx response carries. RetryAfter,
// when positive, is the server's backoff hint in seconds (fractional
// allowed); it accompanies the HTTP Retry-After header on shed (429)
// responses.
type Error struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after,omitempty"`
	// Primary is the primary's base URL, set on not_primary envelopes
	// so a redirected client knows where mutations go.
	Primary string `json:"primary,omitempty"`
	// Owner is the owning cluster node's base URL, set on wrong_node
	// envelopes so a misdirected client knows where the key lives.
	Owner string `json:"owner,omitempty"`
	// RequestID echoes the request's X-Request-ID header (when the
	// client sent one) so failures are attributable across cross-node
	// hops and retries.
	RequestID string `json:"request_id,omitempty"`
}

// NewError constructs a catalogue error envelope. Every handler must
// build its envelopes through this helper — it is the single
// construction point the error-catalogue test audits — and it panics
// on a code outside the closed catalogue, turning a typo into an
// immediate test failure instead of a silent contract break.
func NewError(code, format string, args ...any) *Error {
	if !KnownCode(code) {
		panic(fmt.Sprintf("api: NewError with unknown code %q", code))
	}
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithRetryAfter sets the backoff hint (seconds) and returns e.
func (e *Error) WithRetryAfter(seconds float64) *Error {
	e.RetryAfter = seconds
	return e
}

// WithPrimary sets the primary's base URL and returns e.
func (e *Error) WithPrimary(url string) *Error {
	e.Primary = url
	return e
}

// WithOwner sets the owning node's base URL and returns e.
func (e *Error) WithOwner(url string) *Error {
	e.Owner = url
	return e
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Validate checks the envelope against the contract: a known code and
// a non-empty message, with a non-negative retry hint.
func (e *Error) Validate() error {
	if !KnownCode(e.Code) {
		return fmt.Errorf("api: unknown error code %q", e.Code)
	}
	if e.Message == "" {
		return fmt.Errorf("api: %s envelope with empty message", e.Code)
	}
	if e.RetryAfter < 0 {
		return fmt.Errorf("api: negative retry_after %g", e.RetryAfter)
	}
	return nil
}

// CodeForStatus maps an HTTP status to the default error code, for
// paths that know the status but not a more specific cause.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusMisdirectedRequest:
		return CodeNotPrimary
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// WriteJSON is the v1 surface's one JSON responder: it writes v with
// status, stamps X-Api-Version, and echoes the request's X-Request-Id
// into an *Error envelope. Routes mounted outside the server's
// middleware (the cluster exchange, replication) use it too, so they
// answer exactly like the API. r may be nil where no request is in
// hand.
func WriteJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	if e, ok := v.(*Error); ok && r != nil {
		if rid := r.Header.Get(RequestIDHeader); rid != "" {
			e.RequestID = rid
		}
	}
	w.Header().Set(VersionHeader, Version)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
