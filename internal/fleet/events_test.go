package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/fleet"
	"mssr/internal/server"
)

// newWorkerWithServer is newWorker but keeps the *server.Server handle,
// so the test can observe the coordinator's relay attaching to the
// worker hub.
func newWorkerWithServer(t *testing.T, cfg server.Config) (string, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL, srv
}

// TestFleetEventsLifecycle runs the acceptance sweep through a 2-worker
// fleet while a typed event subscriber watches the coordinator's
// event bus, and asserts the per-job stream is ordered
// (queued → start → dispatched → … → spec_done ×N → done), every
// dispatch carries a real worker address, every completion follows its
// spec's dispatch, and at least one interval telemetry frame was relayed
// up from a worker with its worker label rewritten.
func TestFleetEventsLifecycle(t *testing.T) {
	addrA, srvA := newWorkerWithServer(t, server.Config{})
	addrB, srvB := newWorkerWithServer(t, server.Config{})
	co, fc := newFleet(t, fleet.Config{Workers: []string{addrA, addrB}, ChunkSize: 16})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var got []events.Event
	errCh := make(chan error, 1)
	go func() {
		errCh <- fc.Events(ctx, "", func(ev events.Event) error {
			got = append(got, ev)
			if ev.Type == events.TypeJobDone || ev.Type == events.TypeJobFailed {
				return client.ErrStopEvents
			}
			return nil
		})
	}()

	// Wait for the test subscription on the fleet bus AND for the relay
	// loops to attach to both worker hubs, so no telemetry frame can slip
	// out before anyone listens.
	deadline := time.Now().Add(10 * time.Second)
	for co.Hub().Subscribers() == 0 || srvA.Hub().Subscribers() == 0 || srvB.Hub().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions never attached: fleet=%d workerA=%d workerB=%d",
				co.Hub().Subscribers(), srvA.Hub().Subscribers(), srvB.Hub().Subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	specs := sweep12()
	sub, err := fc.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("event stream: %v", err)
	}

	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seq not monotonic at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}

	workerAddrs := map[string]bool{addrA: true, addrB: true}
	var (
		queued, started, done          = -1, -1, -1
		firstDispatch, firstDone       = -1, -1
		dispatched, specDones, relayed int
		intervalIdx                    = -1
		dispatchedKeys                 = map[string]bool{}
	)
	for i, ev := range got {
		if ev.Job != sub.JobID {
			continue
		}
		switch ev.Type {
		case events.TypeJobQueued:
			queued = i
		case events.TypeJobStart:
			started = i
		case events.TypeSpecDispatched:
			if firstDispatch < 0 {
				firstDispatch = i
			}
			dispatched++
			dispatchedKeys[ev.Key] = true
			if !workerAddrs[ev.Worker] {
				t.Errorf("spec_dispatched %q carries unknown worker %q", ev.Key, ev.Worker)
			}
		case events.TypeSpecDone:
			if firstDone < 0 {
				firstDone = i
			}
			specDones++
			if !dispatchedKeys[ev.Key] {
				t.Errorf("spec_done %q precedes its spec_dispatched", ev.Key)
			}
			if ev.Error != "" {
				t.Errorf("spec %s failed: %s", ev.Key, ev.Error)
			}
			if ev.Done != specDones {
				t.Errorf("spec_done %d carries done=%d", specDones, ev.Done)
			}
		case events.TypeInterval:
			if intervalIdx < 0 {
				intervalIdx = i
			}
			relayed++
			if !workerAddrs[ev.Worker] {
				t.Errorf("relayed interval carries unknown worker %q", ev.Worker)
			}
			if ev.Interval.End <= ev.Interval.Start {
				t.Errorf("relayed interval window [%d,%d) is empty", ev.Interval.Start, ev.Interval.End)
			}
		case events.TypeJobDone:
			done = i
		case events.TypeJobFailed:
			t.Fatalf("fleet job failed: %+v", ev)
		}
	}
	if queued < 0 || started < 0 || done < 0 {
		t.Fatalf("lifecycle incomplete: queued=%d started=%d done=%d in %d events", queued, started, done, len(got))
	}
	if !(queued < started && started < firstDispatch && firstDispatch < firstDone && firstDone < done) {
		t.Errorf("lifecycle out of order: queued=%d started=%d dispatch=%d spec_done=%d done=%d",
			queued, started, firstDispatch, firstDone, done)
	}
	if dispatched != len(specs) {
		t.Errorf("saw %d spec_dispatched events, want %d", dispatched, len(specs))
	}
	if specDones != len(specs) {
		t.Errorf("saw %d spec_done events, want %d", specDones, len(specs))
	}
	if relayed == 0 {
		t.Error("no interval telemetry frame was relayed from any worker")
	}
	if fin := got[done]; fin.Done != len(specs) {
		t.Errorf("job_done carries done=%d, want %d", fin.Done, len(specs))
	}
}

// TestFleetReadyAndObservabilityMetrics pins /readyz's three states
// (ready, saturated, no-healthy-workers) and the coordinator's
// observability series: build info, uptime, probe-latency histogram,
// and the event-bus gauges.
func TestFleetReadyAndObservabilityMetrics(t *testing.T) {
	gate := newGatedBackend()
	addr, tsW := newWorker(t, server.Config{Backend: fixed{gate}})
	cfg := fleet.Config{
		Workers:        []string{addr},
		HealthInterval: 20 * time.Millisecond,
		RetryBackoff:   5 * time.Millisecond,
	}
	co := fleet.New(cfg)
	ts := httptest.NewServer(co)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		ts.Close()
	})
	fc := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	readyz := func() (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var m map[string]interface{}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("readyz body %q: %v", body, err)
		}
		return resp.StatusCode, m
	}

	// Idle with one healthy worker: ready.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, m := readyz()
		if code == http.StatusOK && m["status"] == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never became ready: %d %v", code, m)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A submission pinned mid-simulation, then identical ones joining its
	// flights until the coordinator's job queue backs up: saturated, but
	// still serving.
	sub, err := fc.Submit(ctx, sweep12()[:2])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started the gated sweep")
	}
	noRetry := client.New(ts.URL)
	noRetry.SubmitRetries = -1
	code, m := readyz()
	for i := 0; m["status"] != "saturated" && i < 1000; i++ {
		_, _ = noRetry.Submit(ctx, sweep12()[:2]) // 429 once the queue is full
		code, m = readyz()
	}
	if code != http.StatusServiceUnavailable || m["status"] != "saturated" {
		t.Fatalf("readyz under load = %d %v, want 503 saturated", code, m)
	}
	if m["queue_depth"].(float64) < 1 {
		t.Errorf("saturated response carries queue_depth=%v", m["queue_depth"])
	}

	close(gate.release)
	if _, err := fc.Wait(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, m := readyz()
		if code == http.StatusOK && m["status"] == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never drained back to ready: %d %v", code, m)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Observability series on /metrics: build identity, uptime, the
	// probe-duration histogram (the health loop has run many times by
	// now) and the event-stream gauges.
	mtx, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mtx, "msrfleet_build_info{version=") {
		t.Error("metrics lack msrfleet_build_info")
	}
	if metricValue(t, mtx, "msrfleet_uptime_seconds") <= 0 {
		t.Error("msrfleet_uptime_seconds not positive")
	}
	if !strings.Contains(mtx, `msrfleet_probe_duration_seconds_bucket{le="+Inf"}`) {
		t.Error("metrics lack msrfleet_probe_duration_seconds buckets")
	}
	// The first probe may not have completed yet on a fast run; give the
	// health loop a moment to observe one.
	deadline = time.Now().Add(10 * time.Second)
	for metricValue(t, mtx, "msrfleet_probe_duration_seconds_count") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("probe-duration histogram saw no observations")
		}
		time.Sleep(10 * time.Millisecond)
		if mtx, err = fc.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(mtx, "msrfleet_stream_connections") || !strings.Contains(mtx, "msrfleet_events_dropped_total") {
		t.Error("metrics lack the event-bus series")
	}

	// The only worker goes away: the fleet is alive but not ready.
	tsW.CloseClientConnections()
	tsW.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, m := readyz()
		if code == http.StatusServiceUnavailable && m["status"] == "no healthy workers" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet without workers reports %d %v, want 503 no healthy workers", code, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := fc.Health(ctx); err != nil {
		t.Errorf("fleet without workers reported dead: %v", err)
	}
}
