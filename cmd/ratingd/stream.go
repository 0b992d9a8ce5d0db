package main

// Streaming-detection wiring: -stream-detect switches the engine's
// online detection path on and exposes its alert log on /v1/alerts.
// The daemon adapts shard.Streaming's alert log, in shard types, to
// the server's AlertSource, in wire types, and — when
// -maintain-every is set — lets the rating clock drive authoritative
// maintenance windows through the journal so they are durable exactly
// like client-issued /v1/process calls.

import (
	"context"
	"time"

	"repro/internal/api"
	"repro/internal/shard"
)

// alertFeed adapts a shard.AlertLog to server.AlertSource.
type alertFeed struct{ log *shard.AlertLog }

func toAPIAlerts(as []shard.Alert) []api.Alert {
	if len(as) == 0 {
		return nil
	}
	out := make([]api.Alert, len(as))
	for i, a := range as {
		out[i] = api.Alert{
			Seq:          a.Seq,
			Rater:        int(a.Rater),
			Source:       a.Source,
			Suspicion:    a.Suspicion,
			FirstFlagged: a.FirstFlagged,
			WallNS:       a.Wall.UnixNano(),
		}
	}
	return out
}

func (f alertFeed) Alerts(since uint64) ([]api.Alert, uint64) {
	as, next := f.log.Alerts(since)
	return toAPIAlerts(as), next
}

func (f alertFeed) WaitAlerts(ctx context.Context, since uint64, wait time.Duration) ([]api.Alert, uint64) {
	as, next := f.log.WaitAlerts(ctx, since, wait)
	return toAPIAlerts(as), next
}
