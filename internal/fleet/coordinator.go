// Package fleet implements the msrd fleet coordinator: an msrd server
// (internal/server) whose backend is a ring of msrd worker daemons
// instead of an in-process simulator. The coordinator therefore speaks
// the /v1 API a single daemon does through the server's own handlers —
// one job book, one result cache, in-flight dedup, the /stream and
// /v1/events streams, /healthz and /readyz — so every existing client
// (internal/client, msrbench -remote) points at a fleet unchanged, and
// a repeated spec is answered at the coordinator without a worker hop.
//
// Sharding is content-addressed: each spec's shard key
// (sim.Spec.ShardKey — the canonical key, except that checkpointable
// multi-fidelity specs collapse to their program identity) is
// rendezvous-hashed onto the worker ring, so identical specs that miss
// the coordinator's cache always land on the same worker, whose
// in-memory cache, persistent store and checkpoint store stay warm for
// them. The ring dispatcher adds what a single daemon cannot provide:
//
//   - worker registration (static Workers list plus POST
//     /fleet/v1/workers, which restarted workers use to re-announce
//     themselves) and periodic liveness probing;
//   - failure handling: when a worker fails its health checks or breaks
//     mid-stream, its queued and unresolved specs are re-hashed across
//     the remaining ring and retried with backoff, bounded by a per-spec
//     attempt budget. Demotion also cancels the worker's dispatch in
//     flight, so a worker that stalls its result stream cannot hold its
//     specs;
//   - work stealing: a worker whose shard queue runs dry takes the tail
//     half of the deepest backlog, so a hot shard (one workload hashing
//     many variants onto one worker) cannot idle the fleet. A single
//     queued spec counts as a backlog when its worker is busy with a
//     dispatch, so a miss never waits out another simulation while a
//     worker idles;
//   - the worker event relay: telemetry frames from every worker's
//     /v1/events stream are re-labelled with the owning coordinator job
//     and worker="addr" and published on the server's bus;
//   - fleet observability: /metrics unions the coordinator server's
//     series (under the msrfleet_ prefix), the ring's own msrfleet_*
//     series and every worker's exposition with a worker="addr" label.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"mssr/internal/api"
	"mssr/internal/events"
	"mssr/internal/server"
)

// Config tunes the coordinator's ring. The zero value is usable but has
// no workers; add them via Workers or the registration endpoint.
type Config struct {
	// Workers is the static list of worker addresses known at startup.
	Workers []string
	// HealthInterval paces the liveness probes (0 = 1s).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures demote a
	// worker (0 = 2).
	HealthFailures int
	// ChunkSize bounds how many specs one dispatch submits to a worker
	// as a single sub-job (0 = 16). Larger chunks amortize HTTP overhead
	// and let the worker batch-execute; smaller chunks spread a sweep
	// wider and give work stealing finer grains.
	ChunkSize int
	// MaxAttempts bounds how many times one spec is dispatched before it
	// completes with an error (0 = 4).
	MaxAttempts int
	// RetryBackoff is the base delay before re-dispatching after a
	// worker failure, scaled by the spec's attempt count (0 = 100ms).
	RetryBackoff time.Duration
	// Logger receives the coordinator's structured logs, its server's
	// included; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 2
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return c
}

// coordinatorJobs is how many jobs the coordinator's server resolves at
// once. It bounds only jobs with misses: a job the coordinator's cache
// holds whole is answered at submission and takes no slot, however many
// jobs hold one (TestFleetCacheHitNotQueuedBehindMiss). A running fleet
// job is a goroutine parked on the ring, and the ring bounds execution
// (one chunk in flight per worker), so the slots only decide which
// jobs' misses reach the shard queues first. The value matches the
// server's default admission queue: as many jobs may run as may wait.
const coordinatorJobs = 64

// Coordinator is the fleet daemon. Create with New, serve with any
// http.Server, stop with Shutdown.
type Coordinator struct {
	srv  *server.Server
	ring *dispatcher
	mux  *http.ServeMux
}

// New builds a Coordinator: a server over a fresh ring dispatcher, with
// one dispatch, relay and health-probe loop per configured worker
// running.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ring := newDispatcher(cfg)
	c := &Coordinator{
		srv:  server.New(server.Config{Workers: coordinatorJobs, Backend: ring, Logger: cfg.Logger}),
		ring: ring,
		mux:  http.NewServeMux(),
	}
	ring.start(c.srv.Hub())
	c.mux.HandleFunc("POST /fleet/v1/workers", c.handleRegister)
	c.mux.HandleFunc("GET /fleet/v1/workers", c.handleWorkers)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.Handle("/", c.srv)
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Shutdown drains the coordinator's server (no new submissions; running
// jobs get until ctx's deadline on the ring), then stops the ring's
// loops. It returns ctx.Err() if the deadline forced cancellation.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.srv.Shutdown(ctx)
	c.ring.stop()
	return err
}

// Hub returns the coordinator's event bus (exported for CLIs/tests).
func (c *Coordinator) Hub() *events.Hub { return c.srv.Hub() }

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterWorkerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	if req.Addr == "" {
		writeJSON(w, http.StatusBadRequest, api.Error{Error: "no worker addr"})
		return
	}
	if err := c.ring.addWorker(req.Addr); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, c.ring.workersResponse())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.ring.workersResponse())
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
