package server_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/server"
	"mssr/internal/sim"
	"mssr/internal/store"
)

// countingBackend delegates to the real Runner while counting Run calls,
// so tests can prove a spec was served without simulating.
type countingBackend struct {
	runs  atomic.Int64
	specs atomic.Int64
}

func (b *countingBackend) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	b.runs.Add(1)
	b.specs.Add(int64(len(specs)))
	return (&sim.Runner{}).Run(ctx, specs)
}

// newDaemonOver serves an already-constructed Server over loopback; the
// caller owns its shutdown (newTestDaemon's cleanup ordering would fight
// the store-close sequencing these tests pin).
func newDaemonOver(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.PollInterval = 2 * time.Millisecond
	return c
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 64<<20, nil)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestStoreWarmRestart pins the restart-survival acceptance criterion:
// a daemon started over a populated store directory serves a previously
// computed spec as a hit — no simulation executes — and the stats and
// intervals are byte-identical to the original run's.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	specs := []api.Spec{
		{Workload: "nested-mispred", Scale: 0},
		// A sampled spec, so the byte-identity claim covers the interval
		// stream too.
		{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 4, Entries: 64, SampleInterval: 1024},
	}

	// First life: run cold, let the results reach disk.
	st1 := openStore(t, dir)
	b1 := &countingBackend{}
	srv1 := server.New(server.Config{Backend: fixed{b1}, Store: st1})
	ts1 := newDaemonOver(t, srv1)
	sub, err := ts1.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	cold, err := ts1.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatalf("cold wait: %v", err)
	}
	for i, r := range cold.Results {
		if r.Source != api.SourceRun || r.Error != "" {
			t.Fatalf("cold result %d not a clean run: %+v", i, r)
		}
	}
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st1.Close()

	// Second life: fresh process state, same directory.
	st2 := openStore(t, dir)
	t.Cleanup(st2.Close)
	if st2.Len() != len(specs) {
		t.Fatalf("reopened store holds %d results, want %d", st2.Len(), len(specs))
	}
	b2 := &countingBackend{}
	srv2 := server.New(server.Config{Backend: fixed{b2}, Store: st2})
	ts2 := newDaemonOver(t, srv2)
	t.Cleanup(func() {
		c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv2.Shutdown(c)
	})

	sub2, err := ts2.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	warm, err := ts2.Wait(ctx, sub2.JobID)
	if err != nil {
		t.Fatalf("warm wait: %v", err)
	}
	if b2.runs.Load() != 0 {
		t.Fatalf("restarted daemon executed %d backend runs; the store should have served everything", b2.runs.Load())
	}
	if warm.CacheHits != len(specs) {
		t.Errorf("warm job cache hits = %d, want %d", warm.CacheHits, len(specs))
	}
	for i, r := range warm.Results {
		if r.Source != api.SourceStore {
			t.Errorf("warm result %d source = %q, want %q", i, r.Source, api.SourceStore)
		}
		if r.WallNS != 0 {
			t.Errorf("store hit %d reports wall time %dns", i, r.WallNS)
		}
		wantStats, _ := json.Marshal(cold.Results[i].Stats)
		gotStats, _ := json.Marshal(r.Stats)
		if string(wantStats) != string(gotStats) {
			t.Errorf("result %d stats diverged across restart:\ncold %s\nwarm %s", i, wantStats, gotStats)
		}
		wantIv, _ := json.Marshal(cold.Results[i].Intervals)
		gotIv, _ := json.Marshal(r.Intervals)
		if string(wantIv) != string(gotIv) {
			t.Errorf("result %d intervals diverged across restart:\ncold %s\nwarm %s", i, wantIv, gotIv)
		}
	}

	m, err := ts2.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if hits := metricValue(t, m, "msrd_store_hits_total"); hits != float64(len(specs)) {
		t.Errorf("msrd_store_hits_total = %v, want %d", hits, len(specs))
	}
	if entries := metricValue(t, m, "msrd_store_entries"); entries != float64(len(specs)) {
		t.Errorf("msrd_store_entries = %v, want %d", entries, len(specs))
	}

	// The store hit promoted the result into memory: a repeat submission
	// is a plain cache hit.
	sub3, err := ts2.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	third, err := ts2.Wait(ctx, sub3.JobID)
	if err != nil {
		t.Fatalf("third wait: %v", err)
	}
	for i, r := range third.Results {
		if r.Source != api.SourceCache {
			t.Errorf("promoted result %d source = %q, want %q", i, r.Source, api.SourceCache)
		}
	}
}

// TestCacheEvictsIntoStore pins the write-behind eviction path: results
// pushed out of the bounded in-memory LRU land on disk and stay
// servable.
func TestCacheEvictsIntoStore(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	t.Cleanup(st.Close)
	b := &countingBackend{}
	srv := server.New(server.Config{Backend: fixed{b}, Store: st, CacheEntries: 1})
	c := newDaemonOver(t, srv)
	t.Cleanup(func() {
		sc, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sc)
	})

	specs := []api.Spec{
		{Workload: "nested-mispred", Scale: 0},
		{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
	}
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, sub.JobID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st.Flush()
	// The 1-entry cache evicted at least one of the two results; both
	// must be on disk (write-behind covers completion and eviction).
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if ev := metricValue(t, m, "msrd_cache_evictions_total"); ev < 1 {
		t.Errorf("msrd_cache_evictions_total = %v, want >= 1", ev)
	}
	for _, name := range []string{"msrd_store_write_errors_total", "msrd_store_dropped_total"} {
		if v := metricValue(t, m, name); v != 0 {
			t.Errorf("%s = %v, want 0: every write-behind should reach disk", name, v)
		}
	}
	if st.Len() != len(specs) {
		t.Errorf("store holds %d results, want %d", st.Len(), len(specs))
	}

	// A resubmission completes with zero new simulations: one spec from
	// memory, one from disk.
	before := b.runs.Load()
	sub2, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	warm, err := c.Wait(ctx, sub2.JobID)
	if err != nil {
		t.Fatalf("rewait: %v", err)
	}
	if b.runs.Load() != before {
		t.Errorf("resubmission ran the backend (%d -> %d runs)", before, b.runs.Load())
	}
	if warm.CacheHits != len(specs) {
		t.Errorf("resubmission cache hits = %d, want %d", warm.CacheHits, len(specs))
	}
}

// TestReadyz pins the readiness endpoint: ready when serving, 503 while
// saturated, 503 while draining.
func TestReadyz(t *testing.T) {
	backend := newBlockingBackend()
	srv, ts, c := newTestDaemon(t, server.Config{Workers: 1, QueueLimit: 1, Backend: fixed{backend}})
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("idle daemon not ready: %v", err)
	}

	// Pin the worker, then fill the queue: readiness must flip while
	// liveness stays green.
	spec := func(entries int) []api.Spec {
		return []api.Spec{{Workload: "pr", Scale: 0, Engine: "rgid", Streams: 1, Entries: entries}}
	}
	if _, err := c.Submit(ctx, spec(16)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	backend.waitStarted(t)
	if _, err := c.Submit(ctx, spec(32)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Ready(ctx); err == nil {
		t.Error("saturated daemon reported ready")
	}
	if err := c.Health(ctx); err != nil {
		t.Errorf("saturated daemon reported dead: %v", err)
	}

	close(backend.release)
	deadline := time.Now().Add(10 * time.Second)
	for c.Ready(ctx) != nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready after draining its queue")
		}
		time.Sleep(2 * time.Millisecond)
	}

	go func() {
		sc, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sc)
	}()
	deadline = time.Now().Add(10 * time.Second)
	for c.Ready(ctx) == nil {
		if time.Now().After(deadline) {
			t.Fatal("draining daemon never reported not-ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = ts
}
