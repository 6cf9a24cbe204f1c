// Package cli holds the small helpers the msr* commands share.
package cli

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mssr/internal/dash"
)

// BuildLogger constructs a daemon's structured logger from -log-level
// and -log-format flag values. Level "off" returns nil, which the
// daemons treat as discard.
func BuildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error, off)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
}

// Serve runs a daemon's handler on ln until SIGINT/SIGTERM, then gives
// shutdown up to drain to finish in-flight work before the listener
// closes; it returns once it has. dashboard mounts the live dashboard
// at /dashboard in front of h. The caller opens ln, so a connection
// made once it is open, such as a fleet coordinator's first dial to a
// worker that has just registered, waits in the listen backlog instead
// of being refused.
func Serve(name string, ln net.Listener, h http.Handler, dashboard bool, drain time.Duration, shutdown func(context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, name, h, dashboard, drain, shutdown); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
}

// serve is Serve on a listener it takes over, until ctx ends. It returns
// once shutdown has run and every open response has finished, or at
// once with the error that stopped the listener.
func serve(ctx context.Context, ln net.Listener, name string, h http.Handler, dashboard bool, drain time.Duration, shutdown func(context.Context) error) error {
	if dashboard {
		mux := http.NewServeMux()
		mux.Handle("/dashboard", dash.Handler())
		mux.Handle("/", h)
		h = mux
		log.Printf("%s: dashboard enabled at /dashboard", name)
	}
	httpSrv := &http.Server{Handler: h}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-ctx.Done()
		log.Printf("%s: draining (deadline %s)", name, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			log.Printf("%s: drain deadline hit, running simulations cancelled: %v", name, err)
		}
		// Responses still open, such as event streams ending after the
		// drain, finish within what is left of the deadline.
		_ = httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	// Serve returns as soon as Shutdown closes the listener; wait for
	// Shutdown itself, or open responses are cut off at exit.
	<-stopped
	return nil
}
