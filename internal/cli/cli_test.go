package cli

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeWaitsForOpenResponses pins serve's shutdown order: once its
// context ends it runs shutdown, then returns only after a response
// still open has written its last line. A daemon's event stream thereby
// ends cleanly for its subscriber (msrtail exits 0) instead of being cut
// off when the process exits.
func TestServeWaitsForOpenResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	var shutdownRan, lastWritten atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		w.(http.Flusher).Flush()
		<-drained
		// Outlast the listener's close, which is all a serve that did not
		// wait for its open responses would wait for.
		time.Sleep(50 * time.Millisecond)
		io.WriteString(w, "last\n")
		lastWritten.Store(true)
	})
	shutdown := func(context.Context) error {
		shutdownRan.Store(true)
		close(drained)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, "test", h, false, 10*time.Second, shutdown) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	if line, err := body.ReadString('\n'); line != "first\n" || err != nil {
		t.Fatalf("first line = %q, %v", line, err)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its context ended")
	}
	if !shutdownRan.Load() {
		t.Error("serve returned before shutdown ran")
	}
	if !lastWritten.Load() {
		t.Error("serve returned before the open response wrote its last line")
	}
	if rest, err := io.ReadAll(body); string(rest) != "last\n" || err != nil {
		t.Errorf("rest of the response = %q, %v; want its last line and a clean end", rest, err)
	}
}

func TestBuildLogger(t *testing.T) {
	for _, c := range []struct {
		level, format string
		lowest        slog.Level // the lowest level the logger writes
		json          bool
	}{
		{"debug", "text", slog.LevelDebug, false},
		{"info", "json", slog.LevelInfo, true},
		{"", "", slog.LevelInfo, false},
		{"warn", "", slog.LevelWarn, false},
		{"error", "json", slog.LevelError, true},
	} {
		l, err := BuildLogger(c.level, c.format)
		if err != nil || l == nil {
			t.Errorf("BuildLogger(%q, %q) = %v, %v", c.level, c.format, l, err)
			continue
		}
		ctx := context.Background()
		if !l.Enabled(ctx, c.lowest) || l.Enabled(ctx, c.lowest-1) {
			t.Errorf("BuildLogger(%q, %q) does not start logging at %v", c.level, c.format, c.lowest)
		}
		if _, isJSON := l.Handler().(*slog.JSONHandler); isJSON != c.json {
			t.Errorf("BuildLogger(%q, %q) handler is %T", c.level, c.format, l.Handler())
		}
	}
	if l, err := BuildLogger("off", "json"); l != nil || err != nil {
		t.Errorf(`BuildLogger("off", "json") = %v, %v; want nil, nil`, l, err)
	}
	for _, c := range [][2]string{{"verbose", "text"}, {"info", "xml"}} {
		if _, err := BuildLogger(c[0], c[1]); err == nil {
			t.Errorf("BuildLogger(%q, %q) accepted an unknown value", c[0], c[1])
		}
	}
}
