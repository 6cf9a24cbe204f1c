// Command msrfleet is the fleet coordinator: an msrd server whose
// backend is a ring of worker daemons. It serves the /v1 API through
// the server's own handlers — result cache, in-flight dedup, job book,
// event bus — and shards what the cache cannot answer across the ring by
// content-addressed rendezvous hashing, so existing clients (msrbench
// -remote, internal/client) point at a fleet unchanged (see
// internal/fleet). The coordinator's admission queue and readiness
// threshold are the server defaults.
//
// Usage:
//
//	msrfleet -workers http://10.0.0.1:8371,http://10.0.0.2:8371
//	msrfleet -addr :8370                  # workers join via msrd -register
//	msrfleet -chunk 8 -max-attempts 6 -health-interval 2s
//
// Scrape /metrics for the fleet-wide exposition (the coordinator's own
// msrfleet_* series plus every worker's msrd_* series under
// worker="addr" labels); GET /fleet/v1/workers for ring membership; stop
// with SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"mssr/internal/cli"
	"mssr/internal/fleet"
)

func main() {
	var (
		addr           = flag.String("addr", ":8370", "listen address")
		workers        = flag.String("workers", "", "comma-separated worker addresses (more can join via msrd -register)")
		chunk          = flag.Int("chunk", 16, "specs dispatched to a worker as one sub-job")
		maxAttempts    = flag.Int("max-attempts", 4, "dispatch attempts per spec before it completes with an error")
		retryBackoff   = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before re-dispatching after a worker failure")
		healthInterval = flag.Duration("health-interval", time.Second, "worker liveness probe period")
		healthFailures = flag.Int("health-failures", 2, "consecutive probe failures that demote a worker")
		dashboard      = flag.Bool("dashboard", false, "serve the live telemetry dashboard at /dashboard")
		drain          = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline")
		logLevel       = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		logFormat      = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger, err := cli.BuildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrfleet:", err)
		os.Exit(2)
	}

	var ring []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			ring = append(ring, w)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("msrfleet: %v", err)
	}
	co := fleet.New(fleet.Config{
		Workers:        ring,
		ChunkSize:      *chunk,
		MaxAttempts:    *maxAttempts,
		RetryBackoff:   *retryBackoff,
		HealthInterval: *healthInterval,
		HealthFailures: *healthFailures,
		Logger:         logger,
	})
	log.Printf("msrfleet: serving on %s (%d static workers, chunk %d)", *addr, len(ring), *chunk)
	cli.Serve("msrfleet", ln, co, *dashboard, *drain, co.Shutdown)
}
