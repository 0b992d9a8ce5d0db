package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/rating"
)

// maxConns caps the generator's connections (and, with one goroutine
// per connection, its concurrency) at the box's two cores.
const maxConns = 2

// client speaks the public v1 API to one base URL. Its transport is
// either loopback TCP to a ratingd process or, in traced runs, the
// in-process stack (see stack.go); the workloads cannot tell which.
type client struct {
	hc   *http.Client
	base string
}

func newTCPClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errStatus is a non-2xx answer; the workloads count it as a failed
// operation.
type errStatus struct {
	status int
	body   string
}

func (e *errStatus) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

func (c *client) do(method, path, ctype string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(b))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) get(path string, out any) error { return c.do(http.MethodGet, path, "", nil, out) }

func (c *client) postJSON(path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, path, "application/json", bytes.NewReader(b), out)
}

func payloads(rs []rating.Rating) []api.RatingPayload {
	out := make([]api.RatingPayload, len(rs))
	for i, r := range rs {
		out[i] = api.RatingPayload{Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time}
	}
	return out
}

// submit is one unary POST /v1/ratings; every rating must be accepted.
func (c *client) submit(rs []rating.Rating) error {
	var resp api.SubmitResponse
	if err := c.postJSON("/v1/ratings", payloads(rs), &resp); err != nil {
		return err
	}
	if resp.Accepted != len(rs) {
		return fmt.Errorf("submit accepted %d of %d", resp.Accepted, len(rs))
	}
	return nil
}

// appendNDJSON encodes ratings one per line with shortest round-trip
// floats, so the daemon parses back exactly the generated values.
func appendNDJSON(b []byte, rs []rating.Rating) []byte {
	for _, r := range rs {
		b = append(b, `{"rater":`...)
		b = strconv.AppendInt(b, int64(r.Rater), 10)
		b = append(b, `,"object":`...)
		b = strconv.AppendInt(b, int64(r.Object), 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
		b = append(b, `,"time":`...)
		b = strconv.AppendFloat(b, r.Time, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// stream is one POST /v1/ratings:stream of an encoded chunk. Any line
// rejection or a terminal code in the summary fails the operation.
func (c *client) stream(body []byte, lines int) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/ratings:stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(b))}
	}
	sc := bufio.NewScanner(resp.Body)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var sum api.StreamSummary
	if err := json.Unmarshal(last, &sum); err != nil {
		return fmt.Errorf("stream summary %q: %w", last, err)
	}
	if sum.Code != "" || sum.Rejected != 0 || sum.Accepted != lines {
		return fmt.Errorf("stream: accepted %d of %d lines, rejected %d, code %q: %s",
			sum.Accepted, lines, sum.Rejected, sum.Code, sum.Message)
	}
	return nil
}

func (c *client) process(start, end float64) (api.ProcessResponse, error) {
	var resp api.ProcessResponse
	err := c.postJSON("/v1/process", api.ProcessRequest{Start: start, End: end}, &resp)
	return resp, err
}

func (c *client) stats() (api.StatsResponse, error) {
	var resp api.StatsResponse
	err := c.get("/v1/stats", &resp)
	return resp, err
}

// healthy polls /healthz until the first 200 or the deadline.
func (c *client) healthy(deadline time.Time) error {
	for {
		err := c.get("/healthz", nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %w", c.base, err)
		}
		// Short, so the poll interval does not round the set-up time of
		// a daemon that recovers nothing.
		time.Sleep(250 * time.Microsecond)
	}
}
