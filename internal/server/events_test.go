package server_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/server"
)

// TestEventsLifecycle drives a sampled job through the daemon while a
// typed event subscriber (client.Events on the firehose) watches,
// and asserts the full lifecycle arrives in order: job_queued →
// job_start → spec_start → interval frames → spec_done per spec →
// job_done, with monotonically increasing sequence numbers.
func TestEventsLifecycle(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var got []events.Event
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Events(ctx, "", func(ev events.Event) error {
			got = append(got, ev)
			if ev.Type == events.TypeJobDone || ev.Type == events.TypeJobFailed {
				return client.ErrStopEvents
			}
			return nil
		})
	}()

	// The subscription must be live before the submit, or the queued
	// event races past it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Hub().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("event subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	sub, err := c.Submit(ctx, sampledSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("event stream: %v", err)
	}

	// Sequence numbers are strictly increasing across the whole stream.
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seq not monotonic at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}

	pos := func(match func(events.Event) bool) int {
		for i, ev := range got {
			if match(ev) {
				return i
			}
		}
		return -1
	}
	isType := func(typ string) func(events.Event) bool {
		return func(ev events.Event) bool { return ev.Type == typ && ev.Job == sub.JobID }
	}
	queued := pos(isType(events.TypeJobQueued))
	started := pos(isType(events.TypeJobStart))
	specStart := pos(isType(events.TypeSpecStart))
	interval := pos(func(ev events.Event) bool { return ev.Type == events.TypeInterval && ev.Job == sub.JobID })
	specDone := pos(isType(events.TypeSpecDone))
	done := pos(isType(events.TypeJobDone))
	order := []struct {
		name string
		at   int
	}{
		{"job_queued", queued},
		{"job_start", started},
		{"spec_start", specStart},
		{"interval", interval},
		{"spec_done", specDone},
		{"job_done", done},
	}
	for i, o := range order {
		if o.at < 0 {
			t.Fatalf("no %s event for %s in stream of %d events", o.name, sub.JobID, len(got))
		}
		if i > 0 && o.at <= order[i-1].at {
			t.Errorf("%s (at %d) did not follow %s (at %d)", o.name, o.at, order[i-1].name, order[i-1].at)
		}
	}

	// Interval frames carry the sampler payload and the spec key.
	iv := got[interval]
	if iv.Key == "" {
		t.Error("interval frame carries no spec key")
	}
	if iv.Interval.End <= iv.Interval.Start {
		t.Errorf("interval frame window [%d,%d) is empty", iv.Interval.Start, iv.Interval.End)
	}
	// Every spec resolves exactly once, Done counting up to the total.
	var dones []events.Event
	for _, ev := range got {
		if ev.Type == events.TypeSpecDone && ev.Job == sub.JobID {
			dones = append(dones, ev)
		}
	}
	if len(dones) != len(sampledSpecs()) {
		t.Fatalf("saw %d spec_done events, want %d", len(dones), len(sampledSpecs()))
	}
	for i, ev := range dones {
		if ev.Done != i+1 {
			t.Errorf("spec_done %d carries done=%d, want %d", i, ev.Done, i+1)
		}
		if ev.Error != "" {
			t.Errorf("spec %s failed: %s", ev.Key, ev.Error)
		}
	}
	if fin := got[done]; fin.Done != len(sampledSpecs()) {
		t.Errorf("job_done carries done=%d, want %d", fin.Done, len(sampledSpecs()))
	}
}

// TestEventsJobFilter pins the ?job= subscription: a filtered subscriber
// sees only its own job's events while another job runs concurrently.
func TestEventsJobFilter(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First job exists only to pollute the firehose.
	if _, err := c.Submit(ctx, sampledSpecs()[:1]); err != nil {
		t.Fatal(err)
	}

	// A job id is only known after submit; submit the watched job, then
	// subscribe to it and replay nothing — the job may already be done,
	// so only assert the filter on whatever does arrive.
	sub2, err := c.Submit(ctx, sampledSpecs()[1:])
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
	sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
	defer scancel()
	err = c.Events(sctx, sub2.JobID, func(ev events.Event) error {
		if ev.Job != "" && ev.Job != sub2.JobID {
			t.Errorf("job filter leaked event for %q: %+v", ev.Job, ev)
		}
		if ev.Type == events.TypeJobDone || ev.Type == events.TypeJobFailed {
			return client.ErrStopEvents
		}
		return nil
	})
	// The watched job can finish before the subscription attaches, in
	// which case the deadline fires with no leak observed — also a pass.
	if err != nil && sctx.Err() == nil {
		t.Fatalf("event stream: %v", err)
	}
}

// openEvents sends GET /v1/events on a raw TCP connection and reads
// the response headers, which the server sends once it has subscribed.
// The caller reads nothing more unless it wants to.
func openEvents(t *testing.T, ts *httptest.Server) *net.TCPConn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := fmt.Fprintf(conn, "GET /v1/events HTTP/1.1\r\nHost: %s\r\n\r\n", ts.Listener.Addr()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("GET /v1/events = %s, %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	return conn.(*net.TCPConn)
}

// waitSubscribers waits until the server's hub has n subscribers.
func waitSubscribers(t *testing.T, srv *server.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Hub().Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("hub has %d subscribers, want %d", srv.Hub().Subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEventsSlowConsumerDisconnected: a subscriber that connects and then
// never reads is disconnected once a write stalls past
// StreamWriteTimeout, counted on msrd_stream_errors_total, and the
// stream gauge returns to zero. Publishers are never blocked.
func TestEventsSlowConsumerDisconnected(t *testing.T) {
	srv, ts, c := newTestDaemon(t, server.Config{StreamWriteTimeout: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	openEvents(t, ts)

	// Flood the hub with frames big enough to fill the socket buffers of
	// a reader that never reads. Each publish must return immediately;
	// the stalled writer hits its deadline and disconnects.
	payload := strings.Repeat("x", 32<<10)
	deadline := time.Now().Add(15 * time.Second)
	for {
		start := time.Now()
		for i := 0; i < 64; i++ {
			srv.Hub().Publish(events.Event{Type: events.TypeJobFailed, Job: "flood", Error: payload})
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("publishing to a stalled subscriber took %s; must not block", d)
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(t, m, "msrd_stream_errors_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow consumer was never disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The handler exits after the disconnect: the gauge drains to zero.
	deadline = time.Now().Add(5 * time.Second)
	for {
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(t, m, "msrd_stream_connections") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream gauge never drained after slow-consumer disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitSubscribers(t, srv, 0)
}

// TestEventsHalfClosedReaderDropped: a reader that half-closes its
// connection after subscribing (a peer that sent its last byte and went
// away) is dropped, and the hub's subscriber count returns to zero,
// though no event is ever published to fail a write.
func TestEventsHalfClosedReaderDropped(t *testing.T) {
	srv, ts, _ := newTestDaemon(t, server.Config{})
	conn := openEvents(t, ts)
	if n := srv.Hub().Subscribers(); n != 1 {
		t.Fatalf("hub has %d subscribers once the headers arrived, want 1", n)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, srv, 0)
}

// TestShutdownEndsEventStreams: an event stream never ends by itself,
// and http.Server.Shutdown waits for every open response, so
// Server.Shutdown ends the event streams once its jobs have drained. The
// subscriber sees the draining job finish, then a clean end of stream.
func TestShutdownEndsEventStreams(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var got []events.Event
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Events(ctx, "", func(ev events.Event) error {
			got = append(got, ev)
			return nil
		})
	}()
	waitSubscribers(t, srv, 1)
	sub, err := c.Submit(ctx, microSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Events after Shutdown = %v, want nil: the server must end the stream", err)
	}
	if len(got) == 0 || got[len(got)-1].Type != events.TypeJobDone || got[len(got)-1].Job != sub.JobID {
		t.Errorf("stream did not end with %s's job_done: %d events", sub.JobID, len(got))
	}
}

// TestShutdownEndsIdleEventStreams: an event stream that has been idle
// for longer than StreamWriteTimeout still ends cleanly on Shutdown. The
// closing chunk net/http writes after the handler returns falls under
// the connection's write deadline, so a deadline left over from the
// last write would truncate the stream.
func TestShutdownEndsIdleEventStreams(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{StreamWriteTimeout: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Events(ctx, "", func(events.Event) error { return nil })
	}()
	waitSubscribers(t, srv, 1)
	time.Sleep(100 * time.Millisecond)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Events after an idle spell and Shutdown = %v, want nil", err)
	}
}
