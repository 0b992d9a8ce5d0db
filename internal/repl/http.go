package repl

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/api"
	"repro/internal/wal"
)

func isSegmentGone(err error) bool { return errors.Is(err, wal.ErrSegmentGone) }

// frameWriter writes NDJSON frames and flushes each one, so a
// long-poll client sees frames as they happen rather than at the
// response's end.
type frameWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
}

func newFrameWriter(w http.ResponseWriter, f http.Flusher) *frameWriter {
	return &frameWriter{enc: json.NewEncoder(w), flusher: f}
}

func (fw *frameWriter) write(frame api.ReplFrame) error {
	if err := fw.enc.Encode(frame); err != nil {
		return err
	}
	if fw.flusher != nil {
		fw.flusher.Flush()
	}
	return nil
}
