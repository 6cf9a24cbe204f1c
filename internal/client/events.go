package client

import (
	"context"
	"errors"
	"net/url"

	"mssr/internal/events"
)

// ErrStopEvents is the sentinel fn returns from Events to end the
// subscription cleanly; Events then returns nil.
var ErrStopEvents = errors.New("client: stop event stream")

// Events subscribes to the daemon's (or fleet coordinator's) live event
// bus (GET /v1/events, one NDJSON line per event), calling fn in arrival
// order. jobID filters the stream to one job ("" = firehose: every event
// the service publishes). It returns nil when the server ends the stream
// or fn returns ErrStopEvents, ctx.Err() on cancellation, and fn's error
// otherwise. Gaps in Event.Seq mean the server dropped frames rather
// than stall the publisher — consumers needing a complete record should
// use Stream, which replays every result with its intervals.
func (c *Client) Events(ctx context.Context, jobID string, fn func(events.Event) error) error {
	path := "/v1/events"
	if jobID != "" {
		path += "?job=" + url.QueryEscape(jobID)
	}
	err := getNDJSON(ctx, c, path, fn)
	switch {
	case errors.Is(err, ErrStopEvents):
		return nil
	case err != nil && ctx.Err() != nil:
		return ctx.Err()
	}
	return err
}
