package wal

import (
	"bytes"
	"testing"

	"repro/internal/rating"
)

// fuzzSeedFrames builds a few valid frame streams used to seed both
// fuzzers: recovery code must keep its invariants on real data too.
func fuzzSeedFrames() [][]byte {
	r1 := RatingRecord(rating.Rating{Rater: 7, Object: 42, Value: 0.85, Time: 12.5})
	r2 := RatingRecord(rating.Rating{Rater: -1, Object: 0, Value: -0.1, Time: 0})
	p := BarrierRecord(1, 0, 30)
	var one, two, three []byte
	one = appendFrame(one, r1)
	two = appendFrame(appendFrame(two, r1), p)
	three = appendFrame(appendFrame(appendFrame(three, r1), r2), p)
	return [][]byte{one, two, three}
}

// FuzzParseFrames feeds arbitrary bytes to the segment parser. The
// recovery invariants: never panic, the good offset stays within the
// input, a clean parse consumes everything, the good prefix reparses
// cleanly, and re-encoding the decoded records reproduces the good
// prefix byte for byte (the framing is canonical).
func FuzzParseFrames(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed)
		f.Add(seed[:len(seed)-3])            // torn tail
		f.Add(append([]byte{0xff}, seed...)) // garbage prefix
		bad := append([]byte(nil), seed...)  // flipped payload bit
		bad[len(bad)-1] ^= 0x40
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := parseFrames(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		if err == nil && good != len(data) {
			t.Fatalf("clean parse stopped at %d of %d", good, len(data))
		}
		// The accepted prefix is exactly what recovery keeps after
		// truncating a torn tail: it must itself parse cleanly.
		recs2, good2, err2 := parseFrames(data[:good])
		if err2 != nil || good2 != good || len(recs2) != len(recs) {
			t.Fatalf("good prefix reparse: recs %d->%d good %d->%d err %v",
				len(recs), len(recs2), good, good2, err2)
		}
		// Canonical encoding: re-framing the records rebuilds the prefix.
		var re []byte
		for _, rec := range recs {
			re = appendFrame(re, rec)
		}
		if !bytes.Equal(re, data[:good]) {
			t.Fatalf("re-encoded %d records differ from accepted prefix", len(recs))
		}
	})
}

// FuzzDecodeRecord feeds arbitrary payloads to the record decoder:
// corrupt input must produce an error, never a panic, and any payload
// it accepts must re-encode to the identical bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed[frameHeader:]) // first frame's payload (plus trailing frames; decode rejects)
	}
	f.Add([]byte{byte(TypeRating)})
	f.Add([]byte{byte(TypeBarrier), 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		framed := appendFrame(nil, rec)
		if !bytes.Equal(framed[frameHeader:], payload) {
			t.Fatalf("accepted payload does not round-trip (len %d)", len(payload))
		}
	})
}
