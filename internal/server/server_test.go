package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/server"
	"mssr/internal/sim"
	"mssr/internal/stats"
)

// fixed adapts a hook-less test backend to the server's Backend seam:
// every job's leaders run on it, and their completions publish when its
// Run returns.
type fixed struct{ sim.Backend }

func (f fixed) Job(server.JobHooks) sim.Backend { return f.Backend }

func (fixed) Ready() error { return nil }

// blockingBackend holds every Run until release is closed (or the run
// context is cancelled), letting tests pin the daemon in the "worker
// busy" state deterministically. started receives one signal per Run.
type blockingBackend struct {
	started chan struct{}
	release chan struct{}

	mu    sync.Mutex
	runs  int
	specs []sim.Spec
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (b *blockingBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.mu.Lock()
	b.runs++
	b.specs = append(b.specs, specs...)
	b.mu.Unlock()
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]sim.Result, len(specs))
	for i, sp := range specs {
		out[i] = sim.Result{
			Index: i,
			Key:   sp.Key(),
			Spec:  sp,
			Stats: &stats.Stats{Cycles: 1000, Retired: 800},
			Wall:  time.Millisecond,
		}
	}
	return out, nil
}

func (b *blockingBackend) runCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

func (b *blockingBackend) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("backend never started running")
	}
}

// newTestDaemon serves cfg over a loopback httptest server and returns a
// client for it.
func newTestDaemon(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	c := client.New(ts.URL)
	return srv, ts, c
}

// metricValue parses one un-labelled sample out of Prometheus text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed:\n%s", name, text)
	return 0
}

func microSpecs() []api.Spec {
	return []api.Spec{
		{Workload: "nested-mispred", Scale: 0},
		{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
	}
}

func TestSubmitRunAndStatus(t *testing.T) {
	_, _, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()

	sub, err := c.Submit(ctx, microSpecs())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.Total != 2 {
		t.Errorf("Total = %d, want 2", sub.Total)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || st.Done != 2 || len(st.Results) != 2 {
		t.Fatalf("final status %+v, want done with 2 results", st)
	}
	if st.Error != "" {
		t.Fatalf("job error: %s", st.Error)
	}
	for i, r := range st.Results {
		if r.Index != i {
			t.Errorf("result %d has index %d: results must be in submit order", i, r.Index)
		}
		if r.Source != api.SourceRun {
			t.Errorf("cold result %d source = %q, want %q", i, r.Source, api.SourceRun)
		}
		if r.Error != "" || r.Cycles == 0 || r.WallNS <= 0 {
			t.Errorf("result %d incomplete: %+v", i, r)
		}
	}
	// The engine run must differ in key from the baseline run.
	if st.Results[0].CacheKey == st.Results[1].CacheKey {
		t.Errorf("distinct specs share cache key %q", st.Results[0].CacheKey)
	}
}

// TestBatchAdmissionMatchesUnbatched pins that enabling lockstep batch
// admission changes nothing on the wire: the same submission served by a
// batching daemon returns results in the same order, from the same
// source, with identical simulation counters.
func TestBatchAdmissionMatchesUnbatched(t *testing.T) {
	ctx := context.Background()
	_, _, plain := newTestDaemon(t, server.Config{})
	_, _, batched := newTestDaemon(t, server.Config{Batch: true})

	specs := []api.Spec{
		{Workload: "nested-mispred", Scale: 0},
		{Workload: "linear-mispred", Scale: 0},
		{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
		{Workload: "linear-mispred", Scale: 0, Engine: "ri"},
	}
	run := func(c *client.Client) *api.JobStatus {
		sub, err := c.Submit(ctx, specs)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		st, err := c.Wait(ctx, sub.JobID)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if st.State != api.StateDone || st.Error != "" {
			t.Fatalf("job did not finish cleanly: %+v", st)
		}
		return st
	}
	want, got := run(plain), run(batched)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("batched daemon returned %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if g.Index != i || g.CacheKey != w.CacheKey {
			t.Errorf("result %d: batched key/order (%d, %q) diverges from (%d, %q)",
				i, g.Index, g.CacheKey, w.Index, w.CacheKey)
		}
		if g.Cycles != w.Cycles || g.Retired != w.Retired {
			t.Errorf("result %d (%s): batched counters cycles=%d retired=%d, want cycles=%d retired=%d",
				i, w.CacheKey, g.Cycles, g.Retired, w.Cycles, w.Retired)
		}
		if g.Error != "" {
			t.Errorf("result %d: batched error %q", i, g.Error)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts, c := newTestDaemon(t, server.Config{})
	if _, err := c.Job(context.Background(), "nope"); err == nil {
		t.Error("fetching an unknown job succeeded")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestFinishedJobsBounded pins the job book's bound: the server keeps
// the 1024 most recently finished jobs and answers 404 for an older one,
// while a job still running stays however many others finish meanwhile.
func TestFinishedJobsBounded(t *testing.T) {
	started, hold := make(chan struct{}, 1), make(chan struct{})
	backend := backendFunc(func(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
		if specs[0].Entries == 16 {
			started <- struct{}{}
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return (&sim.Runner{}).Run(ctx, specs)
	})
	_, ts, c := newTestDaemon(t, server.Config{Backend: fixed{backend}})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	submit := func(entries int) string {
		t.Helper()
		sub, err := c.Submit(ctx, []api.Spec{{Workload: "pr", Scale: 0, Engine: "rgid", Streams: 1, Entries: entries}})
		if err != nil {
			t.Fatalf("submit entries=%d: %v", entries, err)
		}
		return sub.JobID
	}
	code := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	first := submit(8)
	if _, err := c.Wait(ctx, first); err != nil {
		t.Fatalf("first job: %v", err)
	}
	held := submit(16)
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("the held job never started")
	}
	// Cache hits finish at submission, so 1024 of them finish while the
	// held job runs.
	later := make([]string, 1024)
	for i := range later {
		later[i] = submit(8)
	}

	for _, p := range []string{"/v1/jobs/" + first, "/v1/jobs/" + first + "/stream"} {
		if got := code(p); got != http.StatusNotFound {
			t.Errorf("GET %s after 1024 later jobs finished = %d, want 404", p, got)
		}
	}
	for _, id := range []string{later[0], later[len(later)-1], held} {
		if got := code("/v1/jobs/" + id); got != http.StatusOK {
			t.Errorf("GET /v1/jobs/%s = %d, want 200", id, got)
		}
	}
	release()
	if st, err := c.Wait(ctx, held); err != nil || st.Results[0].Error != "" {
		t.Fatalf("released job = %+v (%v), want a clean result", st, err)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	_, ts, c := newTestDaemon(t, server.Config{})
	_, err := c.Submit(context.Background(), []api.Spec{{Workload: "no-such-workload"}})
	if err == nil {
		t.Fatal("invalid workload accepted")
	}
	var re *client.RetryError
	if errors.As(err, &re) {
		t.Errorf("validation failure reported as overload: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"specs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty submission status = %d, want 400", resp.StatusCode)
	}
}

func TestCacheHitAccounting(t *testing.T) {
	ctx := context.Background()
	_, _, c := newTestDaemon(t, server.Config{})
	specs := microSpecs()

	sub1, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	st1, err := c.Wait(ctx, sub1.JobID)
	if err != nil {
		t.Fatalf("cold wait: %v", err)
	}

	sub2, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	st2, err := c.Wait(ctx, sub2.JobID)
	if err != nil {
		t.Fatalf("warm wait: %v", err)
	}
	if st2.CacheHits != len(specs) {
		t.Errorf("warm job cache hits = %d, want %d", st2.CacheHits, len(specs))
	}
	for i, r := range st2.Results {
		if r.Source != api.SourceCache {
			t.Errorf("warm result %d source = %q, want cache", i, r.Source)
		}
		if r.WallNS != 0 {
			t.Errorf("cache hit %d reports wall time %dns; hits cost no simulation time", i, r.WallNS)
		}
		if r.Cycles != st1.Results[i].Cycles {
			t.Errorf("cached cycles %d != cold cycles %d: the cache returned a different result", r.Cycles, st1.Results[i].Cycles)
		}
		if r.Key != st1.Results[i].Key || r.Index != i {
			t.Errorf("cached result %d not re-labelled for its request: %+v", i, r)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if hits := metricValue(t, m, "msrd_cache_hits_total"); hits != float64(len(specs)) {
		t.Errorf("msrd_cache_hits_total = %v, want %d", hits, len(specs))
	}
	if misses := metricValue(t, m, "msrd_cache_misses_total"); misses != float64(len(specs)) {
		t.Errorf("msrd_cache_misses_total = %v, want %d", misses, len(specs))
	}
	if runs := metricValue(t, m, "msrd_sims_run_total"); runs != float64(len(specs)) {
		t.Errorf("msrd_sims_run_total = %v, want %d (cache hits must not re-run)", runs, len(specs))
	}
	if entries := metricValue(t, m, "msrd_cache_entries"); entries != float64(len(specs)) {
		t.Errorf("msrd_cache_entries = %v, want %d", entries, len(specs))
	}
}

func TestQueueFullSheds429(t *testing.T) {
	backend := newBlockingBackend()
	retryAfter := 250 * time.Millisecond
	_, ts, c := newTestDaemon(t, server.Config{
		Workers:    1,
		QueueLimit: 1,
		RetryAfter: retryAfter,
		Backend:    fixed{backend},
	})
	ctx := context.Background()
	spec := func(entries int) []api.Spec {
		return []api.Spec{{Workload: "pr", Scale: 0, Engine: "rgid", Streams: 1, Entries: entries}}
	}

	// Fill the worker, then the queue.
	subA, err := c.Submit(ctx, spec(16))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	backend.waitStarted(t)
	subB, err := c.Submit(ctx, spec(32))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	// The next submission must be shed with 429 + Retry-After.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"specs":[{"workload":"pr","engine":"rgid","streams":1,"entries":64}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After header = %q, want %q (250ms rounded up to whole seconds)", ra, "1")
	}

	// The typed client surfaces exhaustion as *RetryError carrying the
	// server's millisecond-precision hint.
	noRetry := client.New(ts.URL)
	noRetry.SubmitRetries = -1
	_, err = noRetry.Submit(ctx, spec(64))
	var re *client.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("shed submission error = %v, want *client.RetryError", err)
	}
	if re.RetryAfter != retryAfter {
		t.Errorf("RetryAfter = %s, want %s from the JSON body", re.RetryAfter, retryAfter)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if rejected := metricValue(t, m, "msrd_jobs_rejected_total"); rejected != 2 {
		t.Errorf("msrd_jobs_rejected_total = %v, want 2", rejected)
	}
	if depth := metricValue(t, m, "msrd_queue_depth"); depth != 1 {
		t.Errorf("msrd_queue_depth = %v, want 1", depth)
	}

	// Releasing the backend drains both accepted jobs; a resubmission of
	// the shed spec is now admitted.
	close(backend.release)
	for _, id := range []string{subA.JobID, subB.JobID} {
		if st, err := c.Wait(ctx, id); err != nil || st.Error != "" {
			t.Fatalf("draining %s: err=%v status=%+v", id, err, st)
		}
	}
	sub, err := c.Submit(ctx, spec(64))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	if _, err := c.Wait(ctx, sub.JobID); err != nil {
		t.Fatalf("post-drain wait: %v", err)
	}
}

// TestCachedJobSkipsTheQueue pins that a job the cache holds whole is
// answered at submission: with the only worker busy and the queue full,
// it is neither shed nor held behind the queued job.
func TestCachedJobSkipsTheQueue(t *testing.T) {
	started, hold := make(chan struct{}, 4), make(chan struct{})
	backend := backendFunc(func(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
		if specs[0].Entries == 16 {
			started <- struct{}{}
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return (&sim.Runner{}).Run(ctx, specs)
	})
	_, _, c := newTestDaemon(t, server.Config{Workers: 1, QueueLimit: 1, Backend: fixed{backend}})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := func(entries int) []api.Spec {
		return []api.Spec{{Workload: "pr", Scale: 0, Engine: "rgid", Streams: 1, Entries: entries}}
	}
	submit := func(cl *client.Client, entries int) string {
		t.Helper()
		sub, err := cl.Submit(ctx, spec(entries))
		if err != nil {
			t.Fatalf("submit entries=%d: %v", entries, err)
		}
		return sub.JobID
	}

	if _, err := c.Wait(ctx, submit(c, 8)); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	held := submit(c, 16)
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("the held job never started")
	}
	queued := submit(c, 32)

	noRetry := client.New(c.BaseURL)
	noRetry.SubmitRetries = -1
	hitCtx, hitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer hitCancel()
	st, err := noRetry.Wait(hitCtx, submit(noRetry, 8))
	if err != nil {
		t.Fatalf("cached job did not complete past the full queue: %v", err)
	}
	if st.CacheHits != 1 || st.Results[0].Source != api.SourceCache {
		t.Errorf("cached job cache hits = %d source %q, want 1 %q", st.CacheHits, st.Results[0].Source, api.SourceCache)
	}

	release()
	for _, id := range []string{held, queued} {
		if st, err := c.Wait(ctx, id); err != nil || st.Results[0].Error != "" {
			t.Fatalf("draining %s: err=%v status=%+v", id, err, st)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, m, "msrd_jobs_rejected_total"); v != 0 {
		t.Errorf("msrd_jobs_rejected_total = %v, want 0", v)
	}
	if v := metricValue(t, m, "msrd_jobs_submitted_total"); v != 4 {
		t.Errorf("msrd_jobs_submitted_total = %v, want 4", v)
	}
}

func TestInFlightDedup(t *testing.T) {
	backend := newBlockingBackend()
	_, _, c := newTestDaemon(t, server.Config{Workers: 2, Backend: fixed{backend}})
	ctx := context.Background()
	spec := []api.Spec{{Workload: "bfs", Scale: 0, Engine: "rgid", Streams: 2, Entries: 32}}

	sub1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	backend.waitStarted(t)
	sub2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}

	// The second job joins the first's flight; the join is counted before
	// it blocks, so poll for it while the leader is still pinned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if metricValue(t, m, "msrd_dedup_joins_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second identical submission never joined the in-flight simulation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := backend.runCount(); got != 1 {
		t.Fatalf("backend ran %d times with an identical spec in flight, want 1", got)
	}

	close(backend.release)
	st1, err := c.Wait(ctx, sub1.JobID)
	if err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	st2, err := c.Wait(ctx, sub2.JobID)
	if err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	if st1.Results[0].Source != api.SourceRun {
		t.Errorf("leader source = %q, want run", st1.Results[0].Source)
	}
	if st2.Results[0].Source != api.SourceDedup || st2.DedupJoins != 1 {
		t.Errorf("follower not deduplicated: %+v", st2)
	}
	if st1.Results[0].Cycles != st2.Results[0].Cycles {
		t.Errorf("dedup returned different cycles: %d vs %d", st1.Results[0].Cycles, st2.Results[0].Cycles)
	}
	if got := backend.runCount(); got != 1 {
		t.Errorf("backend ran %d times in total, want exactly 1", got)
	}

	// The settled flight populated the cache: a third request hits it.
	sub3, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	st3, err := c.Wait(ctx, sub3.JobID)
	if err != nil {
		t.Fatalf("wait 3: %v", err)
	}
	if st3.Results[0].Source != api.SourceCache {
		t.Errorf("post-flight source = %q, want cache", st3.Results[0].Source)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	backend := newBlockingBackend()
	srv, ts, c := newTestDaemon(t, server.Config{Workers: 1, Backend: fixed{backend}})
	ctx := context.Background()
	spec := []api.Spec{{Workload: "cc", Scale: 0}}

	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	backend.waitStarted(t)

	shutdownErr := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(dctx)
	}()

	// Draining: health flips to 503 and new submissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for c.Health(ctx) == nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"specs":[{"workload":"cc"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain = %d, want 503", resp.StatusCode)
	}

	// The in-flight job finishes cleanly and the drain completes.
	close(backend.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown during clean drain = %v, want nil", err)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait after drain: %v", err)
	}
	if st.State != api.StateDone || st.Results[0].Error != "" {
		t.Errorf("drained job not completed cleanly: %+v", st)
	}
}

func TestShutdownDeadlineCancelsRuns(t *testing.T) {
	// This backend only returns when its context is cancelled, modelling
	// a wedged simulation that the drain deadline must kill.
	started := make(chan struct{}, 1)
	wedged := backendFunc(func(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	srv, _, c := newTestDaemon(t, server.Config{Workers: 1, Backend: fixed{wedged}})
	ctx := context.Background()

	sub, err := c.Submit(ctx, []api.Spec{{Workload: "tc", Scale: 0}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || st.Results[0].Error == "" {
		t.Errorf("cancelled job should finish with an error result, got %+v", st)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if failed := metricValue(t, m, "msrd_jobs_failed_total"); failed != 1 {
		t.Errorf("msrd_jobs_failed_total = %v, want 1", failed)
	}
}

// backendFunc adapts a function to sim.Backend.
type backendFunc func(ctx context.Context, specs []sim.Spec) ([]sim.Result, error)

func (f backendFunc) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	return f(ctx, specs)
}

func TestStreamDeliversCompletions(t *testing.T) {
	_, _, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	specs := []api.Spec{
		{Workload: "nested-mispred", Scale: 0},
		{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
		{Workload: "nested-mispred", Scale: 0, Engine: "ri", Sets: 64, Ways: 4},
	}
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var streamed []api.Result
	if err := c.Stream(ctx, sub.JobID, func(r api.Result) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if len(streamed) != len(specs) {
		t.Fatalf("streamed %d records, want %d", len(streamed), len(specs))
	}
	indexes := map[int]bool{}
	for _, r := range streamed {
		if r.Error != "" {
			t.Errorf("streamed failure: %+v", r)
		}
		indexes[r.Index] = true
	}
	if len(indexes) != len(specs) {
		t.Errorf("stream covered indexes %v, want every spec exactly once", indexes)
	}

	// Streaming a finished job replays the full completion log.
	var replayed []api.Result
	if err := c.Stream(ctx, sub.JobID, func(r api.Result) error {
		replayed = append(replayed, r)
		return nil
	}); err != nil {
		t.Fatalf("replay Stream: %v", err)
	}
	if len(replayed) != len(streamed) {
		t.Errorf("replay returned %d records, want %d", len(replayed), len(streamed))
	}
}

func TestRemoteBackendMatchesLocal(t *testing.T) {
	_, ts, _ := newTestDaemon(t, server.Config{})
	spec := sim.Spec{Workload: "linear-mispred", Scale: 0, Engine: sim.EngineRGID, Streams: 4, Entries: 64}

	local, err := (&sim.Runner{}).Run(context.Background(), []sim.Spec{spec})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	var finishes int
	obs := observerFunc(func() { finishes++ })
	rc := client.New(ts.URL)
	remote := &client.Remote{Client: rc, Observer: obs}
	got, err := remote.Run(context.Background(), []sim.Spec{spec})
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("remote returned %d results, want 1", len(got))
	}
	if got[0].Stats.Cycles != local[0].Stats.Cycles {
		t.Errorf("remote cycles %d != local cycles %d: the daemon must be bit-identical to in-process runs",
			got[0].Stats.Cycles, local[0].Stats.Cycles)
	}
	if got[0].Key != spec.Key() || got[0].Index != 0 {
		t.Errorf("remote result mislabelled: %+v", got[0])
	}
	if finishes != 1 {
		t.Errorf("observer saw %d finishes, want 1", finishes)
	}
}

// observerFunc counts OnFinish callbacks.
type observerFunc func()

func (f observerFunc) OnStart(index, total int, key string)    {}
func (f observerFunc) OnFinish(index, total int, r sim.Result) { f() }
