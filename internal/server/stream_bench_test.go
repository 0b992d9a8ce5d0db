package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/rating"
)

// discardJournal accepts every batch without applying it, so the
// stream benchmarks time the protocol side alone: line framing, the
// fast-path parser, validation and batch coalescing, without the
// backend's merge cost.
type discardJournal struct{}

func (discardJournal) SubmitAll(rs []rating.Rating) error { return nil }
func (discardJournal) SubmitAsync(rs []rating.Rating) (func() error, error) {
	return func() error { return nil }, nil
}
func (discardJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	return core.ProcessReport{}, nil
}
func (discardJournal) Restore(r io.Reader) error { return nil }

// benchStreamBody renders n seeded full-precision ratings as NDJSON —
// full precision so the 17-digit floats exercise the parser's
// strconv tail, the shape real clients (and the serving benchmark)
// produce.
func benchStreamBody(n int) []byte {
	rng := randx.New(7)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		p := api.RatingPayload{
			Rater:  rng.Intn(512) + 1,
			Object: rng.Intn(8),
			Value:  rng.Float64(),
			Time:   rng.Float64() * 365,
		}
		if err := enc.Encode(p); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// BenchmarkStreamDecode is the stream endpoint's protocol cost per
// rating: handler-level (no socket), discarding journal.
func BenchmarkStreamDecode(b *testing.B) {
	sys, err := core.NewSafeSystem(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewWith(sys, WithJournal(discardJournal{}))
	if err != nil {
		b.Fatal(err)
	}
	const lines = 10000
	body := benchStreamBody(lines)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/ratings:stream", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.ReportMetric(float64(b.N)*lines/b.Elapsed().Seconds(), "ratings/s")
}
