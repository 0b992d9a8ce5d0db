package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/trust"
)

// jsonEncodeView is StateView.Encode through encoding/json, as it was
// written before the hand-written encoder: records in the order given.
func jsonEncodeView(v StateView, order []rating.RaterID) ([]byte, error) {
	snap := SnapshotDoc{Version: snapshotVersion}
	for _, r := range v.Ratings {
		snap.Ratings = append(snap.Ratings, snapshotRating{
			Rater: int(r.Rater), Object: int(r.Object), Value: r.Value, Time: r.Time,
		})
	}
	for _, id := range order {
		rec := v.Records[id]
		snap.Records = append(snap.Records, snapshotRecord{
			Rater: int(id), S: rec.S, F: rec.F, LastUpdate: rec.LastUpdate,
		})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(snap)
	return buf.Bytes(), err
}

// checkEncodeMatchesJSON encodes v, reads the record order back from
// the output, and requires encoding/json to write the same bytes for
// that order.
func checkEncodeMatchesJSON(t testing.TB, v StateView) {
	t.Helper()
	var got bytes.Buffer
	if err := v.Encode(&got); err != nil {
		t.Fatal(err)
	}
	var snap SnapshotDoc
	if err := json.Unmarshal(got.Bytes(), &snap); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	var order []rating.RaterID
	for _, rec := range snap.Records {
		order = append(order, rating.RaterID(rec.Rater))
	}
	if len(order) != len(v.Records) {
		t.Fatalf("%d records written, view has %d", len(order), len(v.Records))
	}
	want, err := jsonEncodeView(v, order)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("encode differs from encoding/json:\n got %s\nwant %s", got.Bytes(), want)
	}
}

func TestStateViewEncodeMatchesJSON(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 5e-324, 1e21, -1e21, 1e20,
		9.999999999999999e20, 1e-6, 0.1, 1.0 / 3, 123456.789, 2.5e-10, math.MaxFloat64}
	var rs []rating.Rating
	recs := make(map[rating.RaterID]trust.Record)
	for i, f := range edge {
		rs = append(rs, rating.Rating{Rater: rating.RaterID(-i), Object: rating.ObjectID(i * 1000), Value: f, Time: -f})
		recs[rating.RaterID(i)] = trust.Record{S: f, F: edge[(i+1)%len(edge)], LastUpdate: -f}
	}
	rng := randx.New(25)
	for i := 0; i < 5000; i++ {
		rs = append(rs, rating.Rating{
			Rater:  rating.RaterID(rng.Intn(1 << 20)),
			Object: rating.ObjectID(rng.Intn(1000)),
			Value:  rng.Float64(),
			Time:   rng.Uniform(-1, 1) * math.Pow(10, rng.Uniform(-12, 24)),
		})
	}
	for i := 0; i < 500; i++ {
		recs[rating.RaterID(100+i)] = trust.Record{S: rng.Float64() * 50, F: rng.Float64() * 1e-8, LastUpdate: rng.Float64() * 90}
	}
	cases := map[string]StateView{
		"full":          {Ratings: rs, Records: recs},
		"nil ratings":   {Records: recs},
		"empty ratings": {Ratings: []rating.Rating{}, Records: map[rating.RaterID]trust.Record{}},
		"empty":         {},
		"one rating":    {Ratings: rs[:1]},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkEncodeMatchesJSON(t, v) })
	}
}

func TestStateViewEncodeRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		views := []StateView{
			{Ratings: []rating.Rating{{Value: 0.5, Time: f}}},
			{Ratings: []rating.Rating{{Value: f}}},
			{Records: map[rating.RaterID]trust.Record{1: {S: 1, F: 1, LastUpdate: f}}},
		}
		for _, v := range views {
			var buf bytes.Buffer
			err := v.Encode(&buf)
			_, want := jsonEncodeView(v, []rating.RaterID{1})
			if err == nil || want == nil {
				t.Fatalf("%g: encode err %v, encoding/json err %v", f, err, want)
			}
			if got := err.Error(); got != "core: snapshot encode: "+want.Error() {
				t.Fatalf("%g: error %q, encoding/json's %q", f, got, want)
			}
			if buf.Len() != 0 {
				t.Fatalf("%g: a refused view wrote %d bytes", f, buf.Len())
			}
		}
	}
}

// FuzzStateViewEncode checks the encoder against encoding/json on
// arbitrary float bits (NaN and infinities included) and IDs.
func FuzzStateViewEncode(f *testing.F) {
	f.Add(int64(1), int64(2), 0.5, 3.25, 1e-7, 5e-324, 1e21)
	f.Add(int64(-7), int64(0), math.Copysign(0, -1), 1e20, 2.0, 0.0, 1e-6)
	f.Fuzz(func(t *testing.T, rater, object int64, value, tm, s, fl, last float64) {
		v := StateView{
			Ratings: []rating.Rating{
				{Rater: rating.RaterID(rater), Object: rating.ObjectID(object), Value: value, Time: tm},
				{Rater: rating.RaterID(object), Object: rating.ObjectID(rater), Value: s, Time: last},
			},
			Records: map[rating.RaterID]trust.Record{rating.RaterID(rater): {S: s, F: fl, LastUpdate: last}},
		}
		want, wantErr := jsonEncodeView(v, []rating.RaterID{rating.RaterID(rater)})
		var got bytes.Buffer
		err := v.Encode(&got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("encode err %v, encoding/json err %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encode differs from encoding/json:\n got %s\nwant %s", got.Bytes(), want)
		}
	})
}
