package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/fleet"
	"mssr/internal/server"
	"mssr/internal/sim"
	"mssr/internal/stats"
)

// sweep12 is the acceptance sweep: 12 distinct configs (3 workloads x 4
// engine points, one of them sampled) at smoke scale.
func sweep12() []api.Spec {
	var specs []api.Spec
	for _, wl := range []string{"nested-mispred", "bfs", "mcf"} {
		specs = append(specs,
			api.Spec{Workload: wl, Scale: 0},
			api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
			api.Spec{Workload: wl, Scale: 0, Engine: "ri", Streams: 2, Entries: 32},
			api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 4, Entries: 64, SampleInterval: 2048},
		)
	}
	return specs
}

// fixed adapts a hook-less test backend to the server's Backend seam:
// every job's leaders run on it, and their completions publish when its
// Run returns.
type fixed struct{ sim.Backend }

func (f fixed) Job(server.JobHooks) sim.Backend { return f.Backend }

func (fixed) Ready() error { return nil }

// countingBackend counts Run invocations while delegating to the real
// runner.
type countingBackend struct {
	runs atomic.Int64
}

func (b *countingBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.runs.Add(1)
	return (&sim.Runner{}).Run(ctx, specs)
}

// gatedBackend blocks every Run until released, closing started on the
// first call — the hook the worker-failure test uses to kill a worker
// that is provably mid-simulation.
type gatedBackend struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *gatedBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.once.Do(func() { close(b.started) })
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return (&sim.Runner{}).Run(ctx, specs)
}

// stubBackend answers every Run after delay with empty stats, without
// simulating: the stealing test exercises scheduling, and a zero-cost
// fast shard keeps the slow one reliably behind on any host.
type stubBackend struct {
	delay time.Duration
}

func (b *stubBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]sim.Result, len(specs))
	for i, sp := range specs {
		out[i] = sim.Result{Index: i, Key: sp.Key(), Spec: sp, Stats: &stats.Stats{}}
	}
	return out, nil
}

func fastClient(addr string) *client.Client {
	c := client.New(addr)
	c.PollInterval = 2 * time.Millisecond
	return c
}

// newWorker spins up one msrd daemon over loopback and returns its addr.
// The daemon is shut down at cleanup.
func newWorker(t *testing.T, cfg server.Config) (string, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL, ts
}

// newFleet spins up a coordinator over loopback.
func newFleet(t *testing.T, cfg fleet.Config) (*fleet.Coordinator, *client.Client) {
	t.Helper()
	if cfg.NewClient == nil {
		cfg.NewClient = fastClient
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	co := fleet.New(cfg)
	ts := httptest.NewServer(co)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		ts.Close()
	})
	return co, fastClient(ts.URL)
}

// runSweep submits specs and waits for the final status.
func runSweep(t *testing.T, c *client.Client, specs []api.Spec) *api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return st
}

// assertByteIdentical pins fleet results against a single-node baseline:
// same keys, byte-identical stats and intervals, position by position.
func assertByteIdentical(t *testing.T, baseline, got []api.Result) {
	t.Helper()
	if len(baseline) != len(got) {
		t.Fatalf("result count %d, want %d", len(got), len(baseline))
	}
	for i := range baseline {
		if got[i].Error != "" {
			t.Errorf("result %d errored: %s", i, got[i].Error)
			continue
		}
		if got[i].Key != baseline[i].Key {
			t.Errorf("result %d key = %q, want %q", i, got[i].Key, baseline[i].Key)
		}
		ws, _ := json.Marshal(baseline[i].Stats)
		gs, _ := json.Marshal(got[i].Stats)
		if string(ws) != string(gs) {
			t.Errorf("result %d stats diverged:\nsingle %s\nfleet  %s", i, ws, gs)
		}
		wi, _ := json.Marshal(baseline[i].Intervals)
		gi, _ := json.Marshal(got[i].Intervals)
		if string(wi) != string(gi) {
			t.Errorf("result %d intervals diverged:\nsingle %s\nfleet  %s", i, wi, gi)
		}
	}
}

// singleNodeBaseline runs the sweep on one standalone daemon.
func singleNodeBaseline(t *testing.T, specs []api.Spec) []api.Result {
	t.Helper()
	addr, _ := newWorker(t, server.Config{})
	st := runSweep(t, fastClient(addr), specs)
	for i, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("baseline result %d errored: %s", i, r.Error)
		}
	}
	return st.Results
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	return 0
}

// TestFleetSweepMatchesSingleNode pins the core fleet acceptance: a
// 12-config sweep through a 2-worker fleet completes with results
// byte-identical to a single daemon's.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	specs := sweep12()
	baseline := singleNodeBaseline(t, specs)

	ba, bb := &countingBackend{}, &countingBackend{}
	addrA, _ := newWorker(t, server.Config{Backend: fixed{ba}})
	addrB, _ := newWorker(t, server.Config{Backend: fixed{bb}})
	// ChunkSize >= the sweep lets each worker take its whole shard in
	// one dispatch, so no backlog lingers for work stealing to move off
	// its rendezvous home — the cache-homing assertions below depend on
	// every spec running on its own shard.
	_, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}, ChunkSize: 16})

	st := runSweep(t, fc, specs)
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	assertByteIdentical(t, baseline, st.Results)

	// The sweep really was distributed: with 12 keys rendezvous-hashed
	// over two workers, both ran simulations (P[one-sided] ~ 2^-11; if
	// this ever fires, the hash broke, not the dice).
	if ba.runs.Load() == 0 || bb.runs.Load() == 0 {
		t.Errorf("sweep was not distributed: worker runs = %d / %d", ba.runs.Load(), bb.runs.Load())
	}

	// Re-submitting the sweep is served entirely from the coordinator's
	// own result cache: no spec reaches a worker, whatever the first
	// sweep's placement or steals were.
	before := ba.runs.Load() + bb.runs.Load()
	st2 := runSweep(t, fc, specs)
	assertByteIdentical(t, baseline, st2.Results)
	if after := ba.runs.Load() + bb.runs.Load(); after != before {
		t.Errorf("resubmitted sweep ran %d new backend batches; the coordinator cache should have answered it", after-before)
	}
	if st2.CacheHits != len(specs) {
		t.Errorf("resubmitted sweep cache hits = %d, want %d", st2.CacheHits, len(specs))
	}
	m, err := fc.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if hits := metricValue(t, m, "msrfleet_cache_hits_total"); hits != float64(len(specs)) {
		t.Errorf("msrfleet_cache_hits_total = %v, want %d", hits, len(specs))
	}
}

// TestFleetWorkerFailureMidSweep pins the failure path of the
// acceptance: one worker is killed while provably mid-simulation, and
// the sweep still completes byte-identical to single-node — the dead
// worker's specs are re-hashed onto the survivor and retried.
func TestFleetWorkerFailureMidSweep(t *testing.T) {
	specs := sweep12()
	baseline := singleNodeBaseline(t, specs)

	ba := &countingBackend{}
	addrA, _ := newWorker(t, server.Config{Backend: fixed{ba}})

	// Worker B is built by hand (not newWorker) so the test controls the
	// kill and the cleanup ordering around the gated backend.
	bb := newGatedBackend()
	srvB := server.New(server.Config{Backend: fixed{bb}})
	tsB := httptest.NewServer(srvB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srvB.Shutdown(ctx)
	})
	t.Cleanup(func() { bb.once.Do(func() { close(bb.started) }); close(bb.release) })

	_, fc := newFleet(t, fleet.Config{
		Workers:        []string{addrA, tsB.URL},
		ChunkSize:      2,
		HealthFailures: 2,
		MaxAttempts:    5,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := fc.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Wait until worker B is inside a simulation, then kill it hard: no
	// graceful drain, every open connection (including the coordinator's
	// result stream) dies mid-flight.
	select {
	case <-bb.started:
	case <-ctx.Done():
		t.Fatal("worker B never started a simulation")
	}
	tsB.CloseClientConnections()
	tsB.Close()

	st, err := fc.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	assertByteIdentical(t, baseline, st.Results)

	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if retries := metricValue(t, m, "msrfleet_retries_total"); retries < 1 {
		t.Errorf("msrfleet_retries_total = %v, want >= 1: the kill should have forced a retry", retries)
	}
	if failures := metricValue(t, m, "msrfleet_unit_failures_total"); failures != 0 {
		t.Errorf("msrfleet_unit_failures_total = %v, want 0: every spec must survive the kill", failures)
	}

	// The ring converged on the survivor.
	var healthy []api.WorkerInfo
	ws, err := fc.Workers(ctx)
	if err != nil {
		t.Fatalf("Workers: %v", err)
	}
	for _, w := range ws {
		if w.Healthy {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) != 1 || healthy[0].Addr != addrA {
		t.Errorf("healthy ring = %+v, want only %s", healthy, addrA)
	}
}

// TestFleetWorkSteal pins the stealing path: a slow worker's shard
// backlog is drained by the idle fast worker instead of serializing the
// sweep behind the hot shard.
func TestFleetWorkSteal(t *testing.T) {
	// 32 distinct canonical keys: the coordinator's dedup would fold
	// repeats into one ring unit each and shrink the backlog to steal.
	var specs []api.Spec
	for _, wl := range []string{"nested-mispred", "bfs", "mcf", "pr"} {
		for e := 0; e < 8; e++ {
			specs = append(specs, api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 2 << uint(e/4), Entries: 16 << uint(e%4)})
		}
	}

	addrA, _ := newWorker(t, server.Config{Backend: fixed{&stubBackend{}}})
	addrB, _ := newWorker(t, server.Config{Backend: fixed{&stubBackend{delay: 150 * time.Millisecond}}, Workers: 1})
	_, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}, ChunkSize: 1})

	st := runSweep(t, fc, specs)
	if st.State != api.StateDone || st.Done != len(specs) {
		t.Fatalf("fleet job state %s done %d/%d", st.State, st.Done, st.Total)
	}
	for i, r := range st.Results {
		if r.Error != "" {
			t.Errorf("result %d errored: %s", i, r.Error)
		}
	}
	ctx := context.Background()
	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if steals := metricValue(t, m, "msrfleet_steals_total"); steals < 1 {
		t.Errorf("msrfleet_steals_total = %v, want >= 1: the fast worker should have stolen from the slow shard", steals)
	}
}

// TestFleetRegistration pins dynamic membership: a coordinator with no
// static workers is unready and sheds jobs; a registered worker makes it
// ready and serves a sweep; registration is idempotent.
func TestFleetRegistration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, fc := newFleet(t, fleet.Config{})

	if err := fc.Ready(ctx); err == nil {
		t.Error("workerless coordinator reported ready")
	}
	if err := fc.Health(ctx); err != nil {
		t.Errorf("workerless coordinator reported dead: %v", err)
	}
	if _, err := fc.Submit(ctx, sweep12()[:1]); err == nil {
		t.Error("workerless coordinator accepted a job")
	}

	addr, _ := newWorker(t, server.Config{})
	if err := fc.RegisterWorker(ctx, addr); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if err := fc.RegisterWorker(ctx, addr); err != nil {
		t.Fatalf("re-RegisterWorker: %v", err)
	}
	ws, err := fc.Workers(ctx)
	if err != nil {
		t.Fatalf("Workers: %v", err)
	}
	if len(ws) != 1 || ws[0].Addr != addr || !ws[0].Healthy {
		t.Fatalf("workers = %+v, want one healthy %s", ws, addr)
	}
	if err := fc.Ready(ctx); err != nil {
		t.Errorf("coordinator with a healthy worker not ready: %v", err)
	}

	st := runSweep(t, fc, sweep12()[:3])
	for i, r := range st.Results {
		if r.Error != "" {
			t.Errorf("result %d errored: %s", i, r.Error)
		}
	}
}

// TestFleetMetricsAggregation pins the fleet /metrics union: msrfleet_*
// series plus every worker's msrd_* series labelled worker="addr", with
// HELP/TYPE headers deduplicated.
func TestFleetMetricsAggregation(t *testing.T) {
	addrA, _ := newWorker(t, server.Config{})
	addrB, _ := newWorker(t, server.Config{})
	_, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}})

	runSweep(t, fc, sweep12())

	ctx := context.Background()
	m, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, m, "msrfleet_jobs_submitted_total"); v != 1 {
		t.Errorf("msrfleet_jobs_submitted_total = %v, want 1", v)
	}
	if v := metricValue(t, m, "msrfleet_units_completed_total"); v != 12 {
		t.Errorf("msrfleet_units_completed_total = %v, want 12", v)
	}
	if v := metricValue(t, m, "msrfleet_workers_healthy"); v != 2 {
		t.Errorf("msrfleet_workers_healthy = %v, want 2", v)
	}
	for _, addr := range []string{addrA, addrB} {
		want := fmt.Sprintf("msrd_jobs_submitted_total{worker=%q}", addr)
		if !strings.Contains(m, want) {
			t.Errorf("aggregated exposition lacks %s", want)
		}
	}
	if n := strings.Count(m, "# HELP msrd_jobs_submitted_total"); n != 1 {
		t.Errorf("HELP header for msrd_jobs_submitted_total appears %d times, want 1", n)
	}
	if strings.Contains(m, "\nmsrd_jobs_submitted_total ") {
		t.Error("aggregated exposition contains an unlabelled worker sample")
	}
}

// heldBackend runs specs of one workload only once released, and every
// other spec at once.
type heldBackend struct {
	workload string
	started  chan struct{}
	release  chan struct{}
	once     sync.Once
}

func (b *heldBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	for _, sp := range specs {
		if sp.Workload != b.workload {
			continue
		}
		b.once.Do(func() { close(b.started) })
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return (&sim.Runner{}).Run(ctx, specs)
}

// TestFleetCacheHitNotQueuedBehindMiss pins where a repeated spec is
// answered: at the coordinator's own cache, while another job's miss is
// held at the only worker — not in that worker's shard queue behind it,
// and not in the coordinator's job queue behind more jobs waiting on
// that miss than the coordinator has job slots.
func TestFleetCacheHitNotQueuedBehindMiss(t *testing.T) {
	held := &heldBackend{workload: "mcf", started: make(chan struct{}), release: make(chan struct{})}
	addr, _ := newWorker(t, server.Config{Backend: fixed{held}})
	_, fc := newFleet(t, fleet.Config{Workers: []string{addr}})
	var release sync.Once
	unhold := func() { release.Do(func() { close(held.release) }) }
	t.Cleanup(unhold) // before the fleet's cleanup drains the held jobs

	hit := []api.Spec{{Workload: "nested-mispred", Scale: 0}}
	if st := runSweep(t, fc, hit); st.Results[0].Error != "" {
		t.Fatalf("warm-up run errored: %s", st.Results[0].Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	miss, err := fc.Submit(ctx, []api.Spec{{Workload: "mcf", Scale: 0}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held.started:
	case <-ctx.Done():
		t.Fatal("the worker never started the held miss")
	}
	// Identical jobs join the held miss's flight, each holding a job slot
	// while it waits, until every slot is taken and one job queues.
	joiners := make([]string, fleet.CoordinatorJobs)
	for i := range joiners {
		sub, err := fc.Submit(ctx, []api.Spec{{Workload: "mcf", Scale: 0}})
		if err != nil {
			t.Fatalf("joiner %d: %v", i, err)
		}
		joiners[i] = sub.JobID
	}
	for {
		m, err := fc.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(t, m, "msrfleet_jobs_running") == fleet.CoordinatorJobs && metricValue(t, m, "msrfleet_queue_depth") == 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("the joiners never took every job slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	hitCtx, hitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer hitCancel()
	sub, err := fc.Submit(hitCtx, hit)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fc.Wait(hitCtx, sub.JobID)
	if err != nil {
		t.Fatalf("cached spec did not complete while the miss was held: %v", err)
	}
	if st.CacheHits != 1 || st.Results[0].Source != api.SourceCache {
		t.Errorf("cached spec cache hits = %d source %q, want 1 %q", st.CacheHits, st.Results[0].Source, api.SourceCache)
	}
	if ms, err := fc.Job(ctx, miss.JobID); err != nil || ms.State == api.StateDone {
		t.Errorf("held miss = %+v (%v), want it still running", ms, err)
	}
	unhold()
	for _, id := range append([]string{miss.JobID}, joiners...) {
		if st, err := fc.Wait(ctx, id); err != nil || st.Results[0].Error != "" {
			t.Fatalf("released job %s = %+v (%v), want a clean result", id, st, err)
		}
	}
}

// TestFleetRestartOverWarmWorkers pins that a worker's answer keeps its
// source through the coordinator: after a coordinator restart its own
// cache is cold, the workers answer the repeated sweep from theirs, and
// the job reports every spec as a cache hit with no simulation run
// anywhere.
func TestFleetRestartOverWarmWorkers(t *testing.T) {
	specs := sweep12()[:6]
	ba, bb := &countingBackend{}, &countingBackend{}
	addrA, _ := newWorker(t, server.Config{Backend: fixed{ba}})
	addrB, _ := newWorker(t, server.Config{Backend: fixed{bb}})
	// One chunk per shard: no backlog for stealing to move off its home
	// worker, so every spec is cached where the next coordinator sends it.
	cfg := fleet.Config{Workers: []string{addrA, addrB}, ChunkSize: 16}

	first, fc1 := newFleet(t, cfg)
	cold := runSweep(t, fc1, specs)
	for i, r := range cold.Results {
		if r.Error != "" || r.Source != api.SourceRun {
			t.Fatalf("cold result %d = source %q error %q, want a clean run", i, r.Source, r.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	_, fc2 := newFleet(t, cfg)
	runs := ba.runs.Load() + bb.runs.Load()
	warm := runSweep(t, fc2, specs)
	assertByteIdentical(t, cold.Results, warm.Results)
	for i, r := range warm.Results {
		if r.Source != api.SourceCache {
			t.Errorf("warm result %d source = %q, want %q (the worker's cache answered it)", i, r.Source, api.SourceCache)
		}
	}
	if warm.CacheHits != len(specs) {
		t.Errorf("warm sweep cache hits = %d, want %d", warm.CacheHits, len(specs))
	}
	if n := ba.runs.Load() + bb.runs.Load() - runs; n != 0 {
		t.Errorf("warm sweep ran %d worker backend batches, want 0", n)
	}
	m, err := fc2.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, m, "msrfleet_sims_run_total"); v != 0 {
		t.Errorf("msrfleet_sims_run_total = %v, want 0", v)
	}
	if v := metricValue(t, m, "msrfleet_cache_misses_total"); v != float64(len(specs)) {
		t.Errorf("msrfleet_cache_misses_total = %v, want %d (the restarted coordinator's cache is cold)", v, len(specs))
	}
	for _, name := range []string{"msrfleet_ckpt_hits_total", "msrfleet_store_hits_total",
		"msrfleet_ckpt_write_errors_total", "msrfleet_ckpt_dropped_total",
		"msrfleet_store_write_errors_total", "msrfleet_store_dropped_total"} {
		if strings.Contains(m, name) {
			t.Errorf("coordinator exports %s for a store it does not have", name)
		}
	}
}
