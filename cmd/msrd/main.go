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
//	msrd -selfbench                 # in-process cold-vs-cache benchmark, JSON on stdout
//
// Submit work with `msrbench -remote host:port` or POST /v1/jobs
// directly; scrape /metrics; stop with SIGINT/SIGTERM — the daemon
// drains running simulations for up to -drain before cancelling them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"mssr/internal/api"
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
		selfbench  = flag.Bool("selfbench", false, "serve in-process, benchmark cold vs cached sweeps plus a saturating burst, print JSON and exit")
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

	if *selfbench {
		if err := runSelfbench(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "msrd:", err)
			os.Exit(1)
		}
		return
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
	if *register != "" {
		adv, err := advertiseAddr(*advertise, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrd:", err)
			os.Exit(2)
		}
		go registerLoop(*register, adv)
	}

	log.Printf("msrd: serving on %s (sim jobs %d, queue %d, cache %d)", *addr, *jobs, *queue, *cacheSize)
	cli.Serve("msrd", *addr, handler, *dashboard, *drain, srv.Shutdown)
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

// selfbenchReport is the JSON the -selfbench mode emits; CI archives it
// as BENCH_PR2.json to track the daemon's performance trajectory.
type selfbenchReport struct {
	Specs          int     `json:"specs"`
	ColdMS         float64 `json:"cold_ms"`
	WarmMS         float64 `json:"warm_ms"`
	Speedup        float64 `json:"speedup"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	ColdJobsPerSec float64 `json:"cold_jobs_per_sec"`
	WarmJobsPerSec float64 `json:"warm_jobs_per_sec"`
	BurstSubmitted int     `json:"burst_submitted"`
	BurstShed      int     `json:"burst_shed"`
}

// runSelfbench starts the daemon on a loopback port, runs one sweep
// cold, repeats it against the warm cache, then fires a saturating
// burst to demonstrate 429 load shedding.
func runSelfbench(cfg server.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// A small queue makes the burst's load shedding visible.
	cfg.QueueLimit = 4
	cfg.RetryAfter = 50 * time.Millisecond
	srv := server.New(cfg)
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	c := client.New(ln.Addr().String())
	c.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	var specs []api.Spec
	for _, wl := range []string{"nested-mispred", "linear-mispred", "bfs", "cc", "astar"} {
		specs = append(specs,
			api.Spec{Workload: wl, Scale: 0},
			api.Spec{Workload: wl, Scale: 0, Engine: "rgid", Streams: 4, Entries: 64},
			api.Spec{Workload: wl, Scale: 0, Engine: "ri", Sets: 64, Ways: 4},
		)
	}

	sweep := func() (time.Duration, *api.JobStatus, error) {
		start := time.Now()
		sub, err := c.Submit(ctx, specs)
		if err != nil {
			return 0, nil, err
		}
		st, err := c.Wait(ctx, sub.JobID)
		if err != nil {
			return 0, nil, err
		}
		return time.Since(start), st, nil
	}

	cold, _, err := sweep()
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	warm, warmStatus, err := sweep()
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}

	// Saturating burst: far more simultaneous submissions than
	// worker+queue slots, each an uncached spec so nothing resolves
	// instantly, without client-side retries — the overflow is shed
	// with 429 instead of queueing unboundedly.
	burst := cfg.QueueLimit * 4
	noRetry := client.New(ln.Addr().String())
	noRetry.SubmitRetries = -1
	noRetry.PollInterval = 2 * time.Millisecond
	type submitResult struct {
		id  string
		err error
	}
	outcomes := make(chan submitResult, burst)
	for i := 0; i < burst; i++ {
		i := i
		go func() {
			sub, err := noRetry.Submit(ctx, []api.Spec{{
				Workload: "pr", Scale: 0, Engine: "rgid",
				Streams: 1 + i%8, Entries: 16 * (1 + i%16),
			}})
			if err != nil {
				outcomes <- submitResult{err: err}
				return
			}
			outcomes <- submitResult{id: sub.JobID}
		}()
	}
	shed := 0
	for i := 0; i < burst; i++ {
		o := <-outcomes
		if o.err != nil {
			shed++
			continue
		}
		if _, err := noRetry.Wait(ctx, o.id); err != nil {
			return fmt.Errorf("draining burst job %s: %w", o.id, err)
		}
	}

	rep := selfbenchReport{
		Specs:          len(specs),
		ColdMS:         float64(cold.Microseconds()) / 1e3,
		WarmMS:         float64(warm.Microseconds()) / 1e3,
		CacheHitRate:   float64(warmStatus.CacheHits) / float64(len(specs)),
		BurstSubmitted: burst,
		BurstShed:      shed,
	}
	if warm > 0 {
		rep.Speedup = float64(cold) / float64(warm)
		rep.WarmJobsPerSec = float64(time.Second) / float64(warm)
	}
	if cold > 0 {
		rep.ColdJobsPerSec = float64(time.Second) / float64(cold)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
