package server_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/server"
)

// sampledSpecs is microSpecs with interval telemetry attached.
func sampledSpecs() []api.Spec {
	specs := microSpecs()
	for i := range specs {
		specs[i].SampleInterval = 64
	}
	return specs
}

// syncBuffer is a concurrency-safe log sink: the daemon logs from worker
// and handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestIntervalEndpointAndHistograms(t *testing.T) {
	var logBuf syncBuffer
	srv, _, c := newTestDaemon(t, server.Config{
		Logger: slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	ctx := context.Background()
	sub, err := c.Submit(ctx, sampledSpecs())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Key, r.Error)
		}
		if len(r.Intervals) == 0 {
			t.Errorf("%s: sampled result carries no intervals", r.Key)
		}
		if r.Stats.L1DHits+r.Stats.L1DMisses == 0 {
			t.Errorf("%s: result stats carry no L1D counters", r.Key)
		}
	}

	// The intervals endpoint replays every result's telemetry as NDJSON.
	var recs []api.IntervalRecord
	if err := c.Intervals(ctx, sub.JobID, func(rec api.IntervalRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("intervals endpoint returned no records")
	}
	var total int
	for _, r := range st.Results {
		total += len(r.Intervals)
	}
	if len(recs) != total {
		t.Errorf("intervals endpoint returned %d records, results carry %d", len(recs), total)
	}
	keys := map[string]bool{}
	for _, r := range st.Results {
		keys[r.Key] = true
	}
	for _, rec := range recs {
		if !keys[rec.Key] {
			t.Errorf("interval record carries unknown key %q", rec.Key)
		}
		if rec.End <= rec.Start {
			t.Errorf("interval record [%d,%d) is empty", rec.Start, rec.End)
		}
	}

	// Histograms and memory-hierarchy counters are on /metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"msrd_request_duration_seconds", "msrd_sim_duration_seconds"} {
		if !strings.Contains(m, name+`_bucket{le="+Inf"}`) {
			t.Errorf("metrics lack %s +Inf bucket", name)
		}
		if !strings.Contains(m, name+`_bucket{le="0.001"}`) {
			t.Errorf("metrics lack %s finite buckets", name)
		}
		if metricValue(t, m, name+"_count") < 1 {
			t.Errorf("%s_count is zero", name)
		}
	}
	if metricValue(t, m, "msrd_sim_duration_seconds_count") != float64(len(st.Results)) {
		t.Errorf("sim duration histogram counts %v observations, ran %d sims",
			metricValue(t, m, "msrd_sim_duration_seconds_count"), len(st.Results))
	}
	if metricValue(t, m, "msrd_sim_l1d_hits_total") <= 0 {
		t.Error("msrd_sim_l1d_hits_total not populated")
	}
	if metricValue(t, m, "msrd_sim_dram_accesses_total") <= 0 {
		t.Error("msrd_sim_dram_accesses_total not populated")
	}
	// The daemon-owned checkpoint store is memory-only: nothing to fail.
	for _, name := range []string{"msrd_ckpt_write_errors_total", "msrd_ckpt_dropped_total"} {
		if v := metricValue(t, m, name); v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}

	// The structured log saw the whole lifecycle. Drain the workers
	// first so the job-finish line is guaranteed written.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	logs := logBuf.String()
	for _, want := range []string{"job submitted", "job start", "job finish", "request_id=", "queue_ms=", "spec_key="} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log lacks %q:\n%s", want, logs)
		}
	}
}

// TestCachedResultsCarryIntervals pins that interval telemetry survives
// the content-addressed cache: sampling parameters are part of the
// canonical key, so a cached sampled result must return the original
// run's stream.
func TestCachedResultsCarryIntervals(t *testing.T) {
	_, _, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	specs := sampledSpecs()[:1]

	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Wait(ctx, sub2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 1 {
		t.Fatalf("resubmission was not a cache hit: %+v", second)
	}
	if len(second.Results[0].Intervals) != len(first.Results[0].Intervals) {
		t.Errorf("cached result carries %d intervals, original %d",
			len(second.Results[0].Intervals), len(first.Results[0].Intervals))
	}

	// An unsampled spec for the same workload must NOT hit the sampled
	// cache entry (different canonical keys).
	plain := microSpecs()[:1]
	sub3, err := c.Submit(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	third, err := c.Wait(ctx, sub3.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != 0 {
		t.Error("unsampled spec was served from the sampled cache entry")
	}
	if len(third.Results[0].Intervals) != 0 {
		t.Error("unsampled result carries intervals")
	}
}

// failAfterHeader is a ResponseWriter whose body writes fail, modelling
// a client that vanished mid-stream.
type failAfterHeader struct {
	header http.Header
	status int
}

func (f *failAfterHeader) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failAfterHeader) WriteHeader(code int)      { f.status = code }
func (f *failAfterHeader) Write([]byte) (int, error) { return 0, errors.New("connection lost") }

func TestStreamEncodeFailuresCounted(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	sub, err := c.Submit(ctx, sampledSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}

	// Drive both NDJSON endpoints against a write-failing connection.
	for _, path := range []string{"/stream", "/intervals"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.JobID+path, nil)
		srv.ServeHTTP(&failAfterHeader{}, req)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, m, "msrd_stream_errors_total"); got != 2 {
		t.Errorf("msrd_stream_errors_total = %v, want 2 (one per endpoint)", got)
	}
}
