// Command msrd is the simulation daemon: it serves the internal/sim
// layer over HTTP with a content-addressed result cache, in-flight
// dedup, bounded admission and Prometheus metrics (see internal/server).
//
// Usage:
//
//	msrd                            # serve on :8371
//	msrd -addr 127.0.0.1:9000 -jobs 8 -queue 128 -cache 8192
//	msrd -timeout 2m -job-timeout 30m -drain 1m
//	msrd -store /var/lib/msrd -store-max-mb 2048   # persistent result store, warm restarts
//	msrd -ckpt /var/lib/msrd-ckpt                  # persistent checkpoint store: multi-fidelity
//	                                               # sweeps skip their functional fast-forward
//	msrd -addr 127.0.0.1:9001 -register http://coord:8370   # join an msrfleet ring
//
// Submit work with `msrbench -remote host:port` or POST /v1/jobs
// directly; scrape /metrics; stop with SIGINT/SIGTERM — the daemon
// drains running simulations for up to -drain before cancelling them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"mssr/internal/ckpt"
	"mssr/internal/cli"
	"mssr/internal/client"
	"mssr/internal/server"
	"mssr/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8371", "listen address")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "max concurrently running simulations per job")
		workers    = flag.Int("workers", 1, "jobs executing concurrently")
		queue      = flag.Int("queue", 64, "admission queue bound; submissions beyond it get 429")
		cacheSize  = flag.Int("cache", 4096, "result cache entries (negative disables caching)")
		timeout    = flag.Duration("timeout", 0, "per-simulation wall-time limit (0 = none)")
		jobTimeout = flag.Duration("job-timeout", 0, "whole-job wall-time limit (0 = none)")
		batch      = flag.Bool("batch", true, "group a job's same-workload specs into lockstep batch runs over a shared instruction stream")
		retryAfter = flag.Duration("retry-after", time.Second, "backoff hint sent with 429 responses")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline before cancelling running simulations")
		storeDir   = flag.String("store", "", "persistent result store directory (empty disables; survives restarts warm)")
		storeMaxMB = flag.Int64("store-max-mb", 1024, "result store size bound in MiB before LRU eviction")
		ckptDir    = flag.String("ckpt", "", "persistent checkpoint store directory (empty keeps checkpoints in memory only)")
		ckptMaxMB  = flag.Int64("ckpt-max-mb", 1024, "checkpoint store disk size bound in MiB before LRU eviction")
		register   = flag.String("register", "", "msrfleet coordinator URL to register with (empty disables)")
		advertise  = flag.String("advertise", "", "address workers advertise to the coordinator (default derives from -addr; required when -addr has no host)")
		dashboard  = flag.Bool("dashboard", false, "serve the live telemetry dashboard at /dashboard")
		withPprof  = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger, err := cli.BuildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrd:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		SimJobs:        *jobs,
		Workers:        *workers,
		QueueLimit:     *queue,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *timeout,
		JobTimeout:     *jobTimeout,
		Batch:          *batch,
		RetryAfter:     *retryAfter,
		Logger:         logger,
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, *storeMaxMB<<20, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrd: opening result store:", err)
			os.Exit(1)
		}
		cfg.Store = st
		log.Printf("msrd: result store %s (%d results, %.1f MiB, bound %d MiB)",
			*storeDir, st.Len(), float64(st.Size())/(1<<20), *storeMaxMB)
	}

	var ck *ckpt.Store
	if *ckptDir != "" {
		ck, err = ckpt.Open(*ckptDir, ckpt.DefaultMemBytes, *ckptMaxMB<<20, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrd: opening checkpoint store:", err)
			os.Exit(1)
		}
		cfg.Checkpoints = ck
		log.Printf("msrd: checkpoint store %s (%d checkpoints, %.1f MiB on disk, bound %d MiB)",
			*ckptDir, ck.DiskLen(), float64(ck.DiskSize())/(1<<20), *ckptMaxMB)
	}

	srv := server.New(cfg)
	var handler http.Handler = srv
	if *withPprof {
		// Mount the pprof handlers explicitly on our own mux rather than
		// importing the package for its DefaultServeMux side effect: the
		// endpoints exist only when asked for, and only here.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("msrd: pprof endpoints enabled under /debug/pprof/")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("msrd: %v", err)
	}
	if *register != "" {
		adv, err := advertiseAddr(*advertise, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrd:", err)
			os.Exit(2)
		}
		// The listener is open, so the coordinator's first dial after
		// registration waits in its backlog instead of being refused.
		go registerLoop(*register, adv)
	}

	log.Printf("msrd: serving on %s (sim jobs %d, queue %d, cache %d)", *addr, *jobs, *queue, *cacheSize)
	cli.Serve("msrd", ln, handler, *dashboard, *drain, srv.Shutdown)
	if st != nil {
		// The server's drain already flushed the write-behind queue;
		// Close joins the writer so nothing is torn mid-rename.
		st.Close()
	}
	if ck != nil {
		ck.Close()
	}
}

// advertiseAddr resolves the address this daemon announces to the
// coordinator: the explicit -advertise, else -addr when it names a host.
func advertiseAddr(advertise, addr string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
		return "", fmt.Errorf("-register needs -advertise: listen address %q has no dialable host", addr)
	}
	return addr, nil
}

// registerLoop announces this worker to the fleet coordinator and keeps
// re-announcing so a restarted coordinator rediscovers the worker
// (registration is idempotent on the coordinator side).
func registerLoop(coordinator, advertise string) {
	const (
		retryEvery      = 2 * time.Second
		reannounceEvery = 30 * time.Second
	)
	cl := client.New(coordinator)
	announced, warned := false, false
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := cl.RegisterWorker(ctx, advertise)
		cancel()
		if err != nil {
			// Log the first failure of each outage, not every retry.
			if !warned {
				log.Printf("msrd: fleet registration with %s failing (retrying): %v", coordinator, err)
				warned = true
			}
			announced = false
			time.Sleep(retryEvery)
			continue
		}
		warned = false
		if !announced {
			log.Printf("msrd: registered with fleet coordinator %s as %s", coordinator, advertise)
			announced = true
		}
		time.Sleep(reannounceEvery)
	}
}
