package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(core.Config{Detector: detector.Config{Threshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL, ts.Client())
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(core.Config{Detector: detector.Config{Order: -1}}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestHealthz(t *testing.T) {
	_, _, client := newTestServer(t)
	if !client.Healthy(context.Background()) {
		t.Fatal("health check failed")
	}
}

func TestSubmitAndAggregateFlow(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()

	var batch []api.RatingPayload
	for i := 0; i < 30; i++ {
		batch = append(batch, api.RatingPayload{
			Rater: i + 1, Object: 42, Value: 0.8, Time: float64(i),
		})
	}
	accepted, err := client.Submit(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 30 {
		t.Fatalf("accepted %d", accepted)
	}

	proc, err := client.Process(ctx, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Objects != 1 || proc.Observations != 30 {
		t.Fatalf("process = %+v", proc)
	}
	// Thirty identical ratings: the constant window is flagged.
	if proc.Suspicious == 0 {
		t.Fatalf("process = %+v, want suspicious windows", proc)
	}

	agg, err := client.Aggregate(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Object != 42 || agg.Value < 0 || agg.Value > 1 {
		t.Fatalf("aggregate = %+v", agg)
	}

	tr, err := client.Trust(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr <= 0 || tr >= 1 {
		t.Fatalf("trust = %g", tr)
	}

	mal, err := client.Malicious(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The whole clique was in suspicious windows with one rating each.
	if len(mal) == 0 {
		t.Fatal("no malicious raters flagged")
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	_, _, client := newTestServer(t)
	_, err := client.Submit(context.Background(), []api.RatingPayload{{Rater: 1, Object: 1, Value: 3, Time: 0}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitRejectsMalformedJSON(t *testing.T) {
	_, ts, _ := newTestServer(t)
	res, err := http.Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", res.StatusCode)
	}
}

func TestProcessRejectsBadWindow(t *testing.T) {
	_, _, client := newTestServer(t)
	_, err := client.Process(context.Background(), 10, 5)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateUnknownObject404(t *testing.T) {
	_, _, client := newTestServer(t)
	_, err := client.Aggregate(context.Background(), 999)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateBadID(t *testing.T) {
	_, ts, _ := newTestServer(t)
	res, err := http.Get(ts.URL + "/v1/objects/notanumber/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", res.StatusCode)
	}
}

func TestUnknownRaterNeutralTrust(t *testing.T) {
	_, _, client := newTestServer(t)
	tr, err := client.Trust(context.Background(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 0.5 {
		t.Fatalf("trust = %g", tr)
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	if _, err := client.Submit(ctx, []api.RatingPayload{{Rater: 1, Object: 7, Value: 0.6, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := client.Snapshot(ctx, &buf); err != nil {
		t.Fatal(err)
	}

	_, _, client2 := newTestServer(t)
	if err := client2.Restore(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	agg, err := client2.Aggregate(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Value != 0.6 {
		t.Fatalf("restored aggregate = %+v", agg)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	_, _, client := newTestServer(t)
	err := client.Restore(context.Background(), strings.NewReader("not json"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t)
	res, err := http.Get(ts.URL + "/v1/ratings") // POST-only route
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", res.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := client.Submit(ctx, []api.RatingPayload{{
					Rater: w*100 + i, Object: w, Value: 0.5, Time: float64(i),
				}})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := client.Trust(ctx, w*100+i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStatsEndpoint(t *testing.T) {
	_, _, client := newTestServer(t)
	ctx := context.Background()
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratings != 0 || stats.Raters != 0 || stats.Malicious != 0 {
		t.Fatalf("fresh stats = %+v", stats)
	}
	if _, err := client.Submit(ctx, []api.RatingPayload{
		{Rater: 1, Object: 1, Value: 0.7, Time: 1},
		{Rater: 2, Object: 1, Value: 0.6, Time: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Process(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratings != 2 || stats.Raters != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}
