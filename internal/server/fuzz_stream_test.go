package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// FuzzStreamNDJSON throws arbitrary byte streams at the bulk-ingest
// endpoint. The framing contract under hostile input: never a panic,
// always HTTP 200 (stream errors are in-band), a response that is
// valid NDJSON, and a final line that parses as a StreamSummary whose
// accounting is consistent (rejected plus accepted never exceeds the
// examined line count).
func FuzzStreamNDJSON(f *testing.F) {
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"rater":1,"object":42,"value":0.8,"time":3.5}`)
	f.Add("{\"rater\":1,\"object\":42,\"value\":0.8,\"time\":3.5}\n{\"rater\":2,\"object\":42,\"value\":0.6,\"time\":4}\n")
	f.Add("{\"rater\":1,\"object\":1,\"value\":0.5,\"time\":1}\r\nnot json\r\n")
	f.Add(`{"rater":1e999,"object":1,"value":0.5,"time":1}`)
	f.Add(`{"rater":1,"object":1,"value":5,"time":1}`)
	f.Add(`{"rater":1,"object":1,"value":0.5,"time":1,"extra":2}`)
	f.Add(`[{"rater":1}]`)
	f.Add("\x00\xff\xfe\n\x01\x02")
	f.Add("{\"rater\":1,\"object\":1,\"value\":0.5,\"time\":1}\n{")
	f.Add(`{"value":0.30000000000000004,"time":1e-22}`)
	f.Add(strings.Repeat(`{"rater":3,"object":2,"value":0.25,"time":2}`+"\n", 40))

	srv, err := New(core.Config{}, WithStreamBatch(4))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/ratings:stream", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("status %d for body %q", w.Code, body)
		}
		lines := bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n"))
		if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
			t.Fatalf("no summary line for body %q", body)
		}
		for _, line := range lines[:len(lines)-1] {
			var le api.StreamLineError
			if err := json.Unmarshal(line, &le); err != nil || le.Line <= 0 || le.Code == "" {
				t.Fatalf("bad line error %q (err %v) for body %q", line, err, body)
			}
		}
		var sum api.StreamSummary
		if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
			t.Fatalf("summary %q: %v", lines[len(lines)-1], err)
		}
		if sum.Accepted < 0 || sum.Rejected < 0 || sum.Accepted+sum.Rejected > sum.Lines {
			t.Fatalf("inconsistent summary %+v for body %q", sum, body)
		}
		if sum.Rejected != len(lines)-1 && sum.Code == "" {
			t.Fatalf("summary %+v but %d line errors for body %q", sum, len(lines)-1, body)
		}
	})
}

// FuzzParseRatingLine differentially tests the fast-path parser
// against the strict decoder: any line the fast path accepts must be
// accepted by the strict decoder with bit-identical fields.
func FuzzParseRatingLine(f *testing.F) {
	f.Add(`{"rater":1,"object":2,"value":0.5,"time":3}`)
	f.Add(`{"rater":-1,"object":0,"value":1e-3,"time":2.5E2}`)
	f.Add(`{"value":0.1}`)
	f.Add(`{}`)
	f.Add(`{"rater":01}`)
	f.Add(`{"value":0.12345678901234567}`)
	f.Add(`{"value":5e22,"time":-0}`)
	f.Add(`{"time":0.000125}`)
	f.Add(` { "rater" : 7 } `)
	f.Add(`{"rater":9223372036854775807}`)
	f.Add(`{"rater":1,"rater":2}`)

	f.Fuzz(func(t *testing.T, line string) {
		fast, ok := parseRatingLine([]byte(line))
		if !ok {
			return // bailing is always allowed
		}
		var strict api.RatingPayload
		if err := decodeStrict([]byte(line), &strict); err != nil {
			t.Fatalf("fast path accepted %q but strict decoder rejects: %v", line, err)
		}
		if fast.Rater != strict.Rater || fast.Object != strict.Object ||
			math.Float64bits(fast.Value) != math.Float64bits(strict.Value) ||
			math.Float64bits(fast.Time) != math.Float64bits(strict.Time) {
			t.Fatalf("line %q: fast %+v != strict %+v", line, fast, strict)
		}
	})
}
