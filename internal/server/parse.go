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
// parseFloatFast either takes exactly the strconv fast path (exact
// uint64 mantissa of at most 15 digits, decimal exponent within the
// exactly-representable power-of-ten range) or delegates the
// delimited number bytes to strconv.ParseFloat — the conversion
// encoding/json itself performs.
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

// pow10 holds the exactly-representable powers of ten; 10^22 is the
// largest float64 power of ten with no rounding error.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatFast reads a JSON number. When the decimal mantissa has
// at most 15 significant digits and the decimal exponent keeps the
// value within one exact power-of-ten multiply or divide it converts
// inline — the same conditions under which strconv.ParseFloat takes
// its exact fast path. Otherwise it hands the already-delimited number
// bytes to strconv.ParseFloat itself, which is the exact conversion
// encoding/json performs, so either way the result is bit-identical
// to the strict decoder's. Only syntax the strict decoder would also
// reject returns ok=false.
func parseFloatFast(b []byte, i int) (float64, int, bool) {
	numStart := i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}

	// Integer part (JSON: one leading zero, or a nonzero-led run).
	start := i
	var mant uint64
	digits := 0   // significant digits accumulated into mant
	exact := true // mantissa (so far) fits 15 digits: inline convert OK
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if digits == 0 && b[i] == '0' && mant == 0 {
			// Leading zeros contribute nothing; JSON validity of "00"
			// is checked below.
			i++
			continue
		}
		if digits >= 15 {
			exact = false // mantissa would truncate: defer to strconv
		} else {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
		i++
	}
	intDigits := i - start
	if intDigits == 0 {
		return 0, i, false
	}
	if b[start] == '0' && intDigits > 1 {
		return 0, i, false // "00", "01": invalid JSON, let the fallback reject
	}
	exp := 0 // decimal exponent applied to mant

	// Fraction.
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if mant == 0 && b[i] == '0' {
				// 0.000x: leading fractional zeros only shift the exponent.
				exp--
				i++
				continue
			}
			if digits >= 15 {
				exact = false
			} else {
				mant = mant*10 + uint64(b[i]-'0')
				digits++
				exp--
			}
			i++
		}
		if i == fracStart {
			return 0, i, false // "1." is not valid JSON
		}
	}

	// Exponent.
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		eStart := i
		e := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if e <= 10000 {
				e = e*10 + int(b[i]-'0')
			}
			i++
		}
		if i == eStart {
			return 0, i, false
		}
		if e > 10000 {
			exact = false // far out of range: strconv's ErrRange decides
		}
		if eneg {
			exp -= e
		} else {
			exp += e
		}
	}

	// Exact inline conversion, mirroring strconv's fast path: the
	// mantissa must fit the 52-bit significand and the power of ten
	// must be one exact multiply or divide away.
	if exact && mant>>52 == 0 {
		f := float64(mant)
		if neg {
			f = -f
		}
		switch {
		case exp == 0:
			return f, i, true
		case exp > 0 && exp <= 15+22:
			g := f
			e := exp
			if e > 22 {
				g *= pow10[e-22]
				e = 22
			}
			if g <= 1e15 && g >= -1e15 {
				return g * pow10[e], i, true
			}
			// Rounded multiply: fall through to strconv.
		case exp < 0 && exp >= -22:
			return f / pow10[-exp], i, true
		}
	}

	// High-precision tail: the number's syntax is already delimited, so
	// hand exactly its bytes to strconv.ParseFloat — the conversion
	// encoding/json itself uses — for a bit-identical result without
	// re-decoding the whole line. The unsafe.String view is read-only
	// and does not outlive the call, and the slice is non-empty (at
	// least one digit was consumed above). A conversion error (e.g.
	// ErrRange on a huge exponent) bails to the strict decoder, which
	// owns the authoritative error text.
	num := b[numStart:i]
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(num), len(num)), 64)
	if err != nil {
		return 0, i, false
	}
	return f, i, true
}
