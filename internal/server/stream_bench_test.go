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

// benchStreamBody renders n seeded ratings as NDJSON with full-precision
// times. Values are full precision too (17 digits), or, with levels,
// on 11 levels — the line shape perfbench's generator produces.
func benchStreamBody(n int, levels bool) []byte {
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
		if levels {
			p.Value = randx.Quantize(p.Value, 11, true)
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
	for _, c := range []struct {
		name   string
		levels bool
	}{{"values=full", false}, {"values=11levels", true}} {
		b.Run(c.name, func(b *testing.B) {
			srv, err := New(core.Config{}, WithJournal(discardJournal{}))
			if err != nil {
				b.Fatal(err)
			}
			const lines = 10000
			body := benchStreamBody(lines, c.levels)
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
		})
	}
}
