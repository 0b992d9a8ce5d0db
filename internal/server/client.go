package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/randx"
)

// RetryPolicy configures idempotent retries. Retries fire only on
// transport errors and 5xx responses — never on 4xx, whose meaning a
// retry cannot change. Each logical call carries one X-Request-ID
// across all its attempts, so the server's idempotency cache
// deduplicates a re-sent mutation whose first response was lost.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries; values <= 1 disable
	// retrying.
	MaxAttempts int
	// BaseDelay is the minimum backoff before a retry; the
	// decorrelated-jitter schedule grows from it. Zero means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 5s.
	MaxDelay time.Duration
	// Seed drives the jitter and the request-ID stream. Each Client
	// mixes a process-wide instance counter into it, so N clients
	// built from the same literal policy — a fleet of followers with
	// one config file — draw divergent schedules and never stampede a
	// recovering server in lockstep, while any single client remains
	// deterministic in (Seed, construction order).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay == 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// clientInstance numbers Clients process-wide; WithRetry derives each
// client's RNG from (policy seed, instance number) so same-seed
// clients don't share a jitter stream (or a request-ID stream, which
// would collide in the server's idempotency cache).
var clientInstance atomic.Int64

// WithRetry enables idempotent retries under p.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) {
		c.retry = p.withDefaults()
		c.rng = randx.New(randx.Derive(p.Seed, int(clientInstance.Add(1))))
		c.delays = randx.Backoff{Min: c.retry.BaseDelay, Max: c.retry.MaxDelay}
	}
}

// maxWrongNodeHops caps how many wrong_node redirects one logical
// call follows before surfacing the error: enough for one stale-table
// bounce plus a concurrent reassignment, small enough that two nodes
// pointing at each other fail fast instead of ping-ponging.
const maxWrongNodeHops = 3

// Client is a typed HTTP client for a Server. The zero value is not
// usable; call NewClient.
type Client struct {
	base   string
	hc     *http.Client
	retry  RetryPolicy
	header http.Header // extra headers on every request (epoch pinning)

	mu     sync.Mutex
	rng    *randx.Rand   // jitter + request IDs; nil when retries are off
	delays randx.Backoff // the retry schedule, drawn from rng
}

// WithHeader attaches a header to every request the client sends; a
// cluster router pins its routing-table epoch with
// WithHeader(api.ClusterEpochHeader, "<epoch>").
func WithHeader(key, value string) ClientOption {
	return func(c *Client) {
		if c.header == nil {
			c.header = make(http.Header)
		}
		c.header.Set(key, value)
	}
}

// NewClient builds a client for the service at base (e.g.
// "http://localhost:8080"). hc may be nil, in which case
// http.DefaultClient is used.
func NewClient(base string, hc *http.Client, opts ...ClientOption) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: base, hc: hc}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// nextRequestID draws a request ID from the seeded stream.
func (c *Client) nextRequestID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%016x%016x", uint64(c.rng.Int63()), uint64(c.rng.Int63()))
}

// backoff returns the pre-attempt delay: decorrelated jitter between
// BaseDelay and MaxDelay (randx.Backoff). retryN == 1 resets the
// schedule for a fresh logical call.
func (c *Client) backoff(retryN int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if retryN == 1 {
		c.delays.Reset()
	}
	return c.delays.Next(c.rng)
}

// APIError is a non-2xx response from the service, carrying the typed
// code from the api.Error envelope so callers branch on Code, not on
// message text or raw status.
type APIError struct {
	Status  int
	Code    string // api.Code* constant; empty for pre-envelope peers
	Message string
	// RetryAfter is the server's backoff hint on shed (429) responses;
	// zero when the server sent none.
	RetryAfter time.Duration
	// Owner is the owning node's base URL on wrong_node envelopes.
	Owner string
	// RequestID is the envelope's echoed X-Request-ID, attributing the
	// failure to one logical call across retries and cross-node hops.
	RequestID string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: status %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("server: status %d: %s", e.Status, e.Message)
}

// Submit sends a batch of ratings and returns how many were accepted.
func (c *Client) Submit(ctx context.Context, ratings []api.RatingPayload) (int, error) {
	var resp api.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ratings", ratings, &resp); err != nil {
		return 0, err
	}
	return resp.Accepted, nil
}

// Process runs one maintenance window.
func (c *Client) Process(ctx context.Context, start, end float64) (api.ProcessResponse, error) {
	var resp api.ProcessResponse
	err := c.do(ctx, http.MethodPost, "/v1/process", api.ProcessRequest{Start: start, End: end}, &resp)
	return resp, err
}

// Aggregate fetches one object's trust-weighted aggregate.
func (c *Client) Aggregate(ctx context.Context, object int) (api.AggregateResponse, error) {
	var resp api.AggregateResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/objects/%d/aggregate", object), nil, &resp)
	return resp, err
}

// Trust fetches one rater's trust value.
func (c *Client) Trust(ctx context.Context, rater int) (float64, error) {
	var resp api.TrustResponse
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/raters/%d/trust", rater), nil, &resp); err != nil {
		return 0, err
	}
	return resp.Trust, nil
}

// Malicious lists the raters currently flagged malicious.
func (c *Client) Malicious(ctx context.Context) ([]int, error) {
	var resp api.MaliciousResponse
	if err := c.do(ctx, http.MethodGet, "/v1/malicious", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Raters, nil
}

// MaliciousPage lists one page of the flagged raters (ascending ID
// order). limit <= 0 means "from offset to the end". The response's
// Page field reports the pre-pagination total.
func (c *Client) MaliciousPage(ctx context.Context, offset, limit int) (api.MaliciousResponse, error) {
	q := url.Values{}
	q.Set("offset", strconv.Itoa(offset))
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var resp api.MaliciousResponse
	err := c.do(ctx, http.MethodGet, "/v1/malicious?"+q.Encode(), nil, &resp)
	return resp, err
}

// MaliciousPointRange lists the flagged raters whose keyspace point
// falls in [lo, hi) — the disjoint slice a cluster router asks each
// member for before merging the ID-sorted results.
func (c *Client) MaliciousPointRange(ctx context.Context, lo uint32, hi uint64) (api.MaliciousResponse, error) {
	q := url.Values{}
	q.Set("point_lo", strconv.FormatUint(uint64(lo), 10))
	q.Set("point_hi", strconv.FormatUint(hi, 10))
	var resp api.MaliciousResponse
	err := c.do(ctx, http.MethodGet, "/v1/malicious?"+q.Encode(), nil, &resp)
	return resp, err
}

// Stats fetches the service's state summary.
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var resp api.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp)
	return resp, err
}

// StatsWithBounds fetches the state summary plus a trust distribution
// binned into the given ascending upper bounds (cumulative counts).
func (c *Client) StatsWithBounds(ctx context.Context, bounds []float64) (api.StatsResponse, error) {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	q := url.Values{}
	q.Set("bounds", strings.Join(parts, ","))
	var resp api.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats?"+q.Encode(), nil, &resp)
	return resp, err
}

// ClusterScan asks a cluster member for the evidence its owned
// objects give over one window: the scan step of the router's window
// exchange.
func (c *Client) ClusterScan(ctx context.Context, start, end float64) (api.ClusterScanResponse, error) {
	var resp api.ClusterScanResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/scan", api.ClusterScanRequest{Start: start, End: end}, &resp)
	return resp, err
}

// ClusterApply sends a cluster member the router's merged observation
// batch for one window: the apply step of the window exchange.
func (c *Client) ClusterApply(ctx context.Context, req api.ClusterApplyRequest) (api.ClusterApplyResponse, error) {
	var resp api.ClusterApplyResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster/apply", req, &resp)
	return resp, err
}

// SubmitStream bulk-ingests NDJSON-framed ratings from body (one
// api.RatingPayload object per line) and returns the server's terminal
// summary plus any per-line rejections. The stream is not retried or
// deduplicated — body is consumed once — so callers resume from
// summary.Lines after a failure rather than re-sending blindly. A
// summary carrying a terminal Code is surfaced as an *APIError
// alongside the partial results.
func (c *Client) SubmitStream(ctx context.Context, body io.Reader) (api.StreamSummary, []api.StreamLineError, error) {
	var summary api.StreamSummary
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ratings:stream", body)
	if err != nil {
		return summary, nil, fmt.Errorf("server: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	res, err := c.hc.Do(req)
	if err != nil {
		return summary, nil, fmt.Errorf("server: %w", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return summary, nil, decodeError(res)
	}

	// The response is NDJSON: zero or more line errors, then exactly
	// one summary (the line without a "line" field).
	var rejects []api.StreamLineError
	sawSummary := false
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Line int `json:"line"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Line > 0 {
			var le api.StreamLineError
			if err := json.Unmarshal(line, &le); err != nil {
				return summary, rejects, fmt.Errorf("server: decode stream line error: %w", err)
			}
			rejects = append(rejects, le)
			continue
		}
		if err := json.Unmarshal(line, &summary); err != nil {
			return summary, rejects, fmt.Errorf("server: decode stream summary: %w", err)
		}
		sawSummary = true
	}
	if err := sc.Err(); err != nil {
		return summary, rejects, fmt.Errorf("server: read stream response: %w", err)
	}
	if !sawSummary {
		return summary, rejects, fmt.Errorf("server: stream response ended without a summary")
	}
	if summary.Code != "" {
		return summary, rejects, &APIError{
			Status:     res.StatusCode,
			Code:       summary.Code,
			Message:    summary.Message,
			RetryAfter: time.Duration(summary.RetryAfter * float64(time.Second)),
		}
	}
	return summary, rejects, nil
}

// Snapshot streams the service's full state into w.
func (c *Client) Snapshot(ctx context.Context, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return decodeError(res)
	}
	if _, err := io.Copy(w, res.Body); err != nil {
		return fmt.Errorf("server: snapshot copy: %w", err)
	}
	return nil
}

// Restore replaces the service's state with the snapshot read from r.
func (c *Client) Restore(ctx context.Context, r io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/v1/snapshot", r)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		return decodeError(res)
	}
	return nil
}

// Healthy reports whether the service answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer res.Body.Close()
	return res.StatusCode == http.StatusOK
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("server: encode request: %w", err)
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	// One request ID spans every attempt of this logical call, so a
	// retried mutation deduplicates server-side instead of
	// double-applying.
	reqID := ""
	if c.rng != nil && method != http.MethodGet {
		reqID = c.nextRequestID()
	}

	var lastErr error
	var hint time.Duration // server's Retry-After from the last shed
	base := c.base
	hops := 0 // wrong_node redirects followed for this logical call
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt)
			// A shed server knows its own recovery horizon better than
			// our exponential schedule: never retry before its hint.
			if hint > delay {
				delay = hint
			}
			hint = 0
			if err := randx.SleepCtx(ctx, delay); err != nil {
				return fmt.Errorf("server: %w (last error: %v)", err, lastErr)
			}
		}
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, reader)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		for k, vs := range c.header {
			req.Header[k] = vs
		}
		res, err := c.hc.Do(req)
		if err != nil {
			// Transport failure: retryable unless the context is done.
			lastErr = fmt.Errorf("server: %w", err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		// 5xx and 429 are the retryable failures: the request never
		// took effect (or deduplicates via the request ID if it did).
		if res.StatusCode >= 500 || res.StatusCode == http.StatusTooManyRequests {
			apiErr := decodeError(res)
			res.Body.Close()
			lastErr = apiErr
			hint = apiErr.RetryAfter
			continue
		}
		err = func() error {
			defer res.Body.Close()
			if res.StatusCode/100 != 2 {
				return decodeError(res)
			}
			if out == nil {
				return nil
			}
			if err := json.NewDecoder(res.Body).Decode(out); err != nil {
				return fmt.Errorf("server: decode response: %w", err)
			}
			return nil
		}()
		if apiErr, ok := err.(*APIError); ok && apiErr.Code == api.CodeWrongNode &&
			apiErr.Owner != "" && hops < maxWrongNodeHops {
			// The refusing node named the owner: re-issue there without
			// consuming a retry attempt. The hop cap keeps two nodes
			// with disagreeing tables from ping-ponging forever.
			base = strings.TrimSuffix(apiErr.Owner, "/")
			hops++
			attempt--
			continue
		}
		return err
	}
	return lastErr
}

// decodeError turns a non-2xx response into an *APIError. The body is
// expected to be an api.Error envelope; a legacy `{"error": "..."}`
// body (pre-envelope peers, fault-injecting test proxies) degrades to
// a code-less APIError, and anything else falls back to the status
// line.
func decodeError(res *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	var env api.Error
	if json.Unmarshal(body, &env) == nil && env.Code != "" {
		e := &APIError{
			Status:     res.StatusCode,
			Code:       env.Code,
			Message:    env.Message,
			RetryAfter: time.Duration(env.RetryAfter * float64(time.Second)),
			Owner:      env.Owner,
			RequestID:  env.RequestID,
		}
		if e.RetryAfter == 0 {
			e.RetryAfter = retryAfterHeader(res)
		}
		return e
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &legacy) == nil && legacy.Error != "" {
		return &APIError{Status: res.StatusCode, Message: legacy.Error}
	}
	return &APIError{Status: res.StatusCode, Message: res.Status}
}

// retryAfterHeader parses a whole-seconds Retry-After header; HTTP
// dates (the header's other legal form) are not produced by this
// service and parse as zero.
func retryAfterHeader(res *http.Response) time.Duration {
	v := res.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
