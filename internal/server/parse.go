package server

import (
	"strconv"
	"unsafe"

	"repro/internal/api"
)

// parseRatingLine is the streaming ingest's fast path: a hand-rolled
// parser for the overwhelmingly common line shape — a flat JSON object
// whose keys are exactly the api.RatingPayload fields and whose values are
// plain numbers. It allocates nothing and returns ok=false for
// anything it is not certain about (escaped keys, nested values,
// malformed numbers), in which case the caller re-parses the line
// with the strict encoding/json decoder, which is authoritative for
// both acceptance and error text.
//
// Certainty is the contract: the fast path must never accept a line
// the strict decoder would reject, and every float it produces must be
// bit-identical to encoding/json's. The latter holds because
// parseFloatFast hands the delimited number bytes to
// strconv.ParseFloat — the conversion encoding/json itself performs.
func parseRatingLine(line []byte) (api.RatingPayload, bool) {
	var p api.RatingPayload
	i, n := skipSpace(line, 0), len(line)
	if i >= n || line[i] != '{' {
		return p, false
	}
	i = skipSpace(line, i+1)
	if i < n && line[i] == '}' {
		// Empty object: all fields zero, same as the strict decoder.
		return p, skipSpace(line, i+1) == n
	}
	for {
		key, rest, ok := parseKey(line, i)
		if !ok {
			return p, false
		}
		i = skipSpace(line, rest)
		if i >= n || line[i] != ':' {
			return p, false
		}
		i = skipSpace(line, i+1)

		switch key {
		case fieldRater, fieldObject:
			v, rest, ok := parseIntFast(line, i)
			if !ok {
				return p, false
			}
			if key == fieldRater {
				p.Rater = v
			} else {
				p.Object = v
			}
			i = rest
		case fieldValue, fieldTime:
			v, rest, ok := parseFloatFast(line, i)
			if !ok {
				return p, false
			}
			if key == fieldValue {
				p.Value = v
			} else {
				p.Time = v
			}
			i = rest
		default:
			return p, false
		}

		i = skipSpace(line, i)
		if i >= n {
			return p, false
		}
		switch line[i] {
		case ',':
			i = skipSpace(line, i+1)
		case '}':
			return p, skipSpace(line, i+1) == n
		default:
			return p, false
		}
	}
}

// Field keys, matched byte-for-byte (escaped spellings bail to the
// strict decoder).
type fieldKey int

const (
	fieldUnknown fieldKey = iota
	fieldRater
	fieldObject
	fieldValue
	fieldTime
)

func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// parseKey reads a double-quoted key with no escapes and maps it to a
// known field.
func parseKey(b []byte, i int) (fieldKey, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return fieldUnknown, i, false
	}
	start := i + 1
	j := start
	for j < len(b) && b[j] != '"' {
		if b[j] == '\\' {
			return fieldUnknown, i, false // escaped key: strict decoder's problem
		}
		j++
	}
	if j >= len(b) {
		return fieldUnknown, i, false
	}
	var key fieldKey
	switch string(b[start:j]) { // compiles to an alloc-free comparison
	case "rater":
		key = fieldRater
	case "object":
		key = fieldObject
	case "value":
		key = fieldValue
	case "time":
		key = fieldTime
	default:
		return fieldUnknown, i, false
	}
	return key, j + 1, true
}

// parseIntFast reads a plain JSON integer (optional minus, no leading
// zeros, no fraction or exponent — those forms go to the strict
// decoder, which rejects them for int fields with its own message).
func parseIntFast(b []byte, i int) (int, int, bool) {
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if v > (1<<63-1)/10 {
			return 0, i, false // would overflow: let the fallback decide
		}
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	switch {
	case i == start: // no digits
		return 0, i, false
	case b[start] == '0' && i-start > 1: // leading zero is not valid JSON
		return 0, i, false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, i, false // not a plain integer
	}
	if neg {
		if v > 1<<63-1 {
			return 0, i, false
		}
		n := -int64(v)
		if int64(int(n)) != n {
			return 0, i, false
		}
		return int(n), i, true
	}
	if v > 1<<63-1 || int64(int(int64(v))) != int64(v) {
		return 0, i, false
	}
	return int(v), i, true
}

// parseFloatFast reads a JSON number. It scans the JSON number
// grammar itself, because strconv.ParseFloat also accepts forms JSON
// does not (Inf, NaN, hex floats, a leading '+'), then hands exactly
// the delimited bytes to strconv.ParseFloat, the conversion
// encoding/json performs, so the result is bit-identical to the
// strict decoder's. Only syntax the strict decoder would also reject,
// or a conversion error (e.g. ErrRange), returns ok=false; the strict
// decoder owns the authoritative error text.
func parseFloatFast(b []byte, i int) (float64, int, bool) {
	numStart := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	// Integer part (JSON: one leading zero, or a nonzero-led run).
	start := i
	i = skipDigits(b, i)
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, i, false // no digits, or "00", "01"
	}
	if i < len(b) && b[i] == '.' {
		fracStart := i + 1
		if i = skipDigits(b, fracStart); i == fracStart {
			return 0, i, false // "1." is not valid JSON
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		eStart := i
		if i = skipDigits(b, eStart); i == eStart {
			return 0, i, false
		}
	}
	// The unsafe.String view is read-only and does not outlive the
	// call, and the slice is non-empty (at least one digit was read).
	num := b[numStart:i]
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(num), len(num)), 64)
	if err != nil {
		return 0, i, false
	}
	return f, i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}
