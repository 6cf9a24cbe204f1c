// Package dash serves the embedded live-telemetry dashboard: one
// dependency-free HTML page that reads the /v1/events NDJSON firehose
// and renders job lifecycle, per-spec sparklines (IPC, reuse
// rate, MPKI) and — against a fleet coordinator — the worker ring with
// health and queue depths. The same page works against a single msrd
// daemon (the ring section hides itself when /fleet/v1/workers 404s)
// and an msrfleet coordinator.
package dash

import (
	_ "embed"
	"net/http"
)

//go:embed dashboard.html
var page []byte

// Handler serves the dashboard page. Mount it at /dashboard on the
// daemon's or coordinator's mux (both gate it behind a -dashboard
// flag).
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write(page)
	})
}
