package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/rating"
	"repro/internal/trust"
)

// snapshotVersion is bumped on incompatible snapshot-format changes.
const snapshotVersion = 1

// ErrSnapshotVersion is returned when loading a snapshot written by an
// incompatible format version.
var ErrSnapshotVersion = errors.New("core: unsupported snapshot version")

// SnapshotDoc is the snapshot document as encoding/json decodes it.
// Ratings and trust records are stored exhaustively; configuration is
// NOT persisted — the caller reconstructs the System with its own
// Config, so operational tuning (thresholds, filters) can change
// across restarts without invalidating the state. A format that
// embeds a snapshot declares a SnapshotDoc field, so its own fields
// and the snapshot decode in one pass, and then calls View.
type SnapshotDoc struct {
	Version int              `json:"version"`
	Ratings []snapshotRating `json:"ratings"`
	Records []snapshotRecord `json:"records"`
}

type snapshotRating struct {
	Rater  int     `json:"rater"`
	Object int     `json:"object"`
	Value  float64 `json:"value"`
	Time   float64 `json:"time"`
}

type snapshotRecord struct {
	Rater      int     `json:"rater"`
	S          float64 `json:"s"`
	F          float64 `json:"f"`
	LastUpdate float64 `json:"lastUpdate"`
}

// StateView is a point-in-time copy of a system's persistent state:
// every stored rating plus every trust record. Capturing a view is a
// plain memory copy, so a concurrent wrapper can take it under a
// short critical section and serialize outside the lock — snapshots
// then cost ingest only the copy, not the encoding.
type StateView struct {
	Ratings []rating.Rating
	Records map[rating.RaterID]trust.Record
}

// View captures the system's current state as a copy. The ratings are
// emitted per object in the store's first-seen object order, each
// object's ratings time-sorted — the same order WriteSnapshot has
// always serialized.
func (s *System) View() StateView {
	v := StateView{Records: s.manager.Records(), Ratings: slices.Grow([]rating.Rating(nil), s.store.Len())}
	s.store.Each(func(_ rating.ObjectID, rs []rating.Rating) {
		v.Ratings = append(v.Ratings, rs...)
	})
	return v
}

// Encode serializes the view in the snapshot wire format: exactly the
// bytes encoding/json's Encoder writes for the snapshot envelope, with
// ratings in view order, records in map order and a trailing newline.
// It appends them by hand into one presized buffer and writes it once.
// NaN and ±Inf are refused, as encoding/json refuses them.
func (v StateView) Encode(w io.Writer) error {
	b, err := v.AppendEncode(nil)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: snapshot encode: %w", err)
	}
	return nil
}

// AppendEncode appends the bytes Encode writes to b, growing it once
// by an estimate of their length, and returns the extended slice.
func (v StateView) AppendEncode(b []byte) ([]byte, error) {
	b = slices.Grow(b, 64+80*(len(v.Ratings)+len(v.Records)))
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, snapshotVersion, 10)
	b = append(b, `,"ratings":`...)
	if len(v.Ratings) == 0 {
		b = append(b, "null"...)
	}
	var err error
	sep := byte('[')
	for _, r := range v.Ratings {
		b = append(b, sep)
		sep = ','
		b = append(b, `{"rater":`...)
		b = strconv.AppendInt(b, int64(r.Rater), 10)
		b = append(b, `,"object":`...)
		b = strconv.AppendInt(b, int64(r.Object), 10)
		if b, err = appendFloatField(b, `,"value":`, r.Value); err != nil {
			return nil, err
		}
		if b, err = appendFloatField(b, `,"time":`, r.Time); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	if len(v.Ratings) > 0 {
		b = append(b, ']')
	}
	b = append(b, `,"records":`...)
	if len(v.Records) == 0 {
		b = append(b, "null"...)
	}
	sep = '['
	for id, rec := range v.Records {
		b = append(b, sep)
		sep = ','
		b = append(b, `{"rater":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		if b, err = appendFloatField(b, `,"s":`, rec.S); err != nil {
			return nil, err
		}
		if b, err = appendFloatField(b, `,"f":`, rec.F); err != nil {
			return nil, err
		}
		if b, err = appendFloatField(b, `,"lastUpdate":`, rec.LastUpdate); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	if len(v.Records) > 0 {
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendFloatField appends key and then f as encoding/json writes a
// float64: the shortest 'f' form, or 'e' with no zero-padded exponent
// when |f| is below 1e-6 or at least 1e21. NaN and ±Inf have no JSON
// form and fail with encoding/json's error.
func appendFloatField(b []byte, key string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		err := &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		return b, fmt.Errorf("core: snapshot encode: %w", err)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(append(b, key...), f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// DecodeSnapshot parses a snapshot previously produced by Encode (or
// WriteSnapshot) back into a state view, validating the format
// version. The ratings keep their serialized order.
func DecodeSnapshot(r io.Reader) (StateView, error) {
	var doc SnapshotDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return StateView{}, fmt.Errorf("core: snapshot decode: %w", err)
	}
	return doc.View()
}

// View validates the document's format version and converts it into a
// state view. The ratings keep their serialized order.
func (d *SnapshotDoc) View() (StateView, error) {
	if d.Version != snapshotVersion {
		return StateView{}, fmt.Errorf("core: snapshot version %d: %w", d.Version, ErrSnapshotVersion)
	}
	v := StateView{Records: make(map[rating.RaterID]trust.Record, len(d.Records))}
	if len(d.Ratings) > 0 {
		v.Ratings = make([]rating.Rating, len(d.Ratings))
	}
	for i, sr := range d.Ratings {
		v.Ratings[i] = rating.Rating{
			Rater:  rating.RaterID(sr.Rater),
			Object: rating.ObjectID(sr.Object),
			Value:  sr.Value,
			Time:   sr.Time,
		}
	}
	for _, rec := range d.Records {
		v.Records[rating.RaterID(rec.Rater)] = trust.Record{
			S:          rec.S,
			F:          rec.F,
			LastUpdate: rec.LastUpdate,
		}
	}
	return v, nil
}

// WriteSnapshot serializes the system's full state (ratings + trust
// records) as JSON.
func (s *System) WriteSnapshot(w io.Writer) error {
	return s.View().Encode(w)
}

// LoadSnapshot replaces the system's state with a snapshot previously
// produced by WriteSnapshot. The system's configuration is kept. On
// error the system's previous state is preserved.
func (s *System) LoadSnapshot(r io.Reader) error {
	v, err := DecodeSnapshot(r)
	if err != nil {
		return err
	}

	store := rating.NewStore()
	for i, sr := range v.Ratings {
		if err := store.Add(sr); err != nil {
			return fmt.Errorf("core: snapshot rating %d: %w", i, err)
		}
	}
	manager, err := trust.NewManager(s.cfg.Trust)
	if err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	if err := manager.Restore(v.Records); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}

	s.store = store
	s.manager = manager
	return nil
}
