// Package server implements msrd, the simulation-as-a-service daemon:
// an HTTP front end over the internal/sim orchestration layer with a
// content-addressed result cache, singleflight dedup of identical
// in-flight specs, a bounded admission queue that sheds load with 429,
// and live Prometheus metrics.
//
// API (JSON; see internal/api for the shapes):
//
//	POST /v1/jobs                 submit a batch of specs -> job id
//	GET  /v1/jobs/{id}            job status; results once done
//	GET  /v1/jobs/{id}/stream     NDJSON of per-simulation completions
//	GET  /v1/events               NDJSON of live bus events (?job= filters)
//	GET  /healthz                 liveness ("draining" during shutdown)
//	GET  /readyz                  readiness (draining, backend, saturation)
//	GET  /metrics                 Prometheus text format
//
// Results are cached and deduplicated by sim.Spec.CanonicalKey(): a wire
// spec names a registry workload plus engine geometry and policies, the
// registry builders are deterministic, so the canonical key fully
// determines the simulation's outcome. Two jobs asking for the same key
// share one simulation; a repeated sweep is served from cache. Whatever
// the cache, store and dedup cannot answer runs on the Backend — an
// in-process sim.Runner by default, the worker ring in a fleet
// coordinator (internal/fleet).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mssr/internal/api"
	"mssr/internal/ckpt"
	"mssr/internal/events"
	"mssr/internal/obs"
	"mssr/internal/sim"
	"mssr/internal/store"
)

// Config tunes the daemon. The zero value is usable: NumCPU-parallel
// simulations, one job at a time, a 64-job queue and a 4096-entry cache.
type Config struct {
	// SimJobs bounds concurrently running simulations within a job
	// (<= 0 = NumCPU).
	SimJobs int
	// Workers is how many jobs execute concurrently (<= 0 = 1). Total
	// simulation parallelism is bounded by Workers*SimJobs.
	Workers int
	// QueueLimit bounds jobs queued behind the workers; submissions
	// beyond it are shed with 429, and /readyz reports saturated while
	// the queue is full (<= 0 = 64).
	QueueLimit int
	// CacheEntries bounds the result cache (0 = 4096; < 0 disables).
	CacheEntries int
	// Store, when set, is the persistent content-addressed result store
	// backing the in-memory cache: completed results are written behind
	// asynchronously, in-memory evictions drain into it, and a spec that
	// misses the memory cache is served from disk (and promoted) before
	// any simulation runs — which is what keeps the daemon warm across
	// restarts. The server flushes the store's write-behind queue on
	// Shutdown; the owner (cmd/msrd) closes it.
	Store *store.Store
	// DefaultTimeout bounds each simulation's wall time unless the spec
	// carries its own (0 = unbounded).
	DefaultTimeout time.Duration
	// JobTimeout bounds a whole job's execution (0 = unbounded).
	JobTimeout time.Duration
	// Batch enables lockstep batch admission: a job's leader specs that
	// share a workload+scale execute as one batch group over a shared
	// instruction stream (sim.Runner.Batching). Per-job accounting and
	// dedup/caching (keyed on CanonicalKey) are unaffected on the wire —
	// results, their intervals included, are bit-identical to unbatched
	// execution, and each job still reports its own wall time and MIPS.
	Batch bool
	// RetryAfter is the backoff hint attached to 429 responses
	// (0 = 1s).
	RetryAfter time.Duration
	// StreamWriteTimeout bounds each write of an NDJSON stream (/stream,
	// /v1/events); a reader that stalls longer is disconnected and
	// counted against msrd_stream_errors_total (0 = 10s).
	StreamWriteTimeout time.Duration
	// Checkpoints, when set, is the checkpoint store every per-job
	// sim.Runner shares: architectural boundary states captured by one
	// job's multi-fidelity runs are restored by later jobs over the same
	// program, skipping their functional fast-forward entirely. nil gets
	// a daemon-owned in-memory store (default bound) when Backend is nil,
	// so /metrics always reports the store the runners actually use. The
	// owner (cmd/msrd) flushes and closes a disk-backed store.
	Checkpoints *ckpt.Store
	// Backend executes leader specs (nil = a sim.Runner per job built
	// from SimJobs, DefaultTimeout, Batch and Checkpoints, every one
	// drawing cores from one daemon-wide sim.CorePool). The fleet
	// coordinator plugs in its worker ring; tests inject fakes.
	Backend Backend
	// Logger receives the daemon's structured logs: one line per HTTP
	// request (request id, method, path, status, duration) and the job
	// lifecycle (submit, start with queue latency, finish with outcome).
	// nil discards everything.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 10 * time.Second
	}
	if c.Backend == nil {
		if c.Checkpoints == nil {
			c.Checkpoints = ckpt.NewMemory(ckpt.DefaultMemBytes)
		}
		c.Backend = &runners{cfg: c}
	}
	if c.Logger == nil {
		// A handler at a level no record reaches; slog.DiscardHandler
		// needs go1.24 and the module declares 1.22.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return c
}

// finishedJobs is how many finished jobs the job book keeps: the oldest
// is dropped when another finishes, so GET /v1/jobs/{id} answers 404 for
// it. Queued and running jobs are always kept. A dropped job's results
// stay in the result cache and store under their canonical keys, so
// resubmitting it is cheap; a stream already open on it keeps its job.
const finishedJobs = 1024

// flight is one in-progress simulation identified by its canonical key.
// Followers (identical specs from any job) wait on done and read res.
type flight struct {
	once sync.Once
	done chan struct{}
	res  api.Result
}

// Server is the daemon. Create with New, serve with any http.Server,
// stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics metrics
	cache   *resultCache
	hub     *events.Hub
	started time.Time

	mu   sync.Mutex // guards jobs, finished, closed, queue sends
	jobs map[string]*job
	// finished lists the ids of the finished jobs still in jobs, oldest
	// first (see finishedJobs).
	finished []string
	closed   bool
	queue    chan *job

	flightMu sync.Mutex
	flights  map[string]*flight

	nextID  atomic.Uint64
	nextReq atomic.Uint64
	log     *slog.Logger
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newResultCache(cfg.CacheEntries),
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueLimit),
		flights: make(map[string]*flight),
		hub:     &events.Hub{},
		started: time.Now(),
		log:     cfg.Logger,
	}
	s.metrics.init()
	s.cache.onEvict = func(key string, res api.Result) {
		s.metrics.cacheEvictions.Add(1)
		if cfg.Store != nil {
			cfg.Store.PutAsync(key, res)
		}
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Hub exposes the live event bus, so an embedding process (the fleet
// coordinator relays from it; tests subscribe directly) can observe the
// daemon without going through /v1/events.
func (s *Server) Hub() *events.Hub { return s.hub }

// statusWriter captures the response code for the request log and the
// latency histogram.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection behind the
// wrapper, so the NDJSON streams can flush and set write deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP implements http.Handler: every request gets an id, a latency
// observation and one structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := fmt.Sprintf("r%d", s.nextReq.Add(1))
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(start)
	s.metrics.requestDur.Observe(dur)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	s.log.Info("request",
		"request_id", rid,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_ms", float64(dur.Microseconds())/1000)
}

// Shutdown drains the daemon: no new submissions are admitted, queued
// and running jobs are given until ctx's deadline to finish, then the
// remaining simulations are cancelled. Once the jobs are done it ends
// the /v1/events streams, which never end by themselves, so the
// http.Server can shut down after it. It returns nil on a clean drain
// and ctx.Err() if the deadline forced cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.cancel()
		<-drained
		err = ctx.Err()
	}
	if s.cfg.Store != nil {
		// Every completed result has been queued behind PutAsync by now;
		// the flush makes them durable before the process exits.
		s.cfg.Store.Flush()
	}
	s.cancel()
	return err
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// ---------------------------------------------------------- execution ---

// cached reports whether the memory cache holds every spec's result.
// The lookups count nothing (runJob counts the hits) and mark each entry
// most recently used, so the LRU keeps it for the runJob that follows.
func (s *Server) cached(specs []sim.Spec) bool {
	for i := range specs {
		if _, ok := s.cache.get(specs[i].CanonicalKey()); !ok {
			return false
		}
	}
	return true
}

// runJob resolves every spec of the job: cache hit, join of an identical
// in-flight simulation, or a fresh run (as the flight leader for that
// canonical key).
func (s *Server) runJob(j *job) {
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	started := time.Now()
	j.start(started)
	queueMS := float64(started.Sub(j.submitted).Microseconds()) / 1000
	s.hub.Publish(events.Event{Type: events.TypeJobStart, Job: j.id, Specs: len(j.specs), QueueMS: queueMS})
	s.log.Info("job start",
		"job_id", j.id,
		"specs", len(j.specs),
		"queue_ms", queueMS)

	type joined struct {
		idx int
		f   *flight
	}
	var (
		leaders       []sim.Spec
		leaderIdx     []int
		leaderFlights []*flight
		waits         []joined
	)
	for i := range j.specs {
		sp := &j.specs[i]
		ck := sp.CanonicalKey()
		if res, ok := s.cache.get(ck); ok {
			s.metrics.cacheHits.Add(1)
			res.Index, res.Key, res.Source, res.WallNS = i, sp.Key(), api.SourceCache, 0
			s.complete(j, res)
			continue
		}
		s.metrics.cacheMisses.Add(1)
		if s.cfg.Store != nil {
			if res, ok := s.cfg.Store.Get(ck); ok {
				// A previous process (or an evicted memory entry) already
				// computed this spec: serve it from disk, promote it back
				// into memory, and run nothing.
				s.cache.put(ck, res)
				res.Index, res.Key, res.Source, res.WallNS = i, sp.Key(), api.SourceStore, 0
				s.complete(j, res)
				continue
			}
		}
		s.flightMu.Lock()
		if f, ok := s.flights[ck]; ok {
			s.flightMu.Unlock()
			s.metrics.dedupJoins.Add(1)
			waits = append(waits, joined{i, f})
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[ck] = f
		s.flightMu.Unlock()
		leaders = append(leaders, *sp)
		leaderIdx = append(leaderIdx, i)
		leaderFlights = append(leaderFlights, f)
	}

	if len(leaders) > 0 {
		fo := &flightObserver{s: s, j: j, idx: leaderIdx, flights: leaderFlights}
		backend := s.cfg.Backend.Job(JobHooks{
			Job:      j.id,
			Observer: fo,
			Resolve:  fo.resolve,
			// Live telemetry taps: non-blocking hub publishes straight
			// from the simulation goroutines. With no subscribers each is
			// one atomic load, preserving the cycle loop's zero-allocation
			// discipline.
			OnInterval: func(index int, key string, iv obs.Interval) {
				s.hub.Publish(events.Event{Type: events.TypeInterval, Job: j.id, Key: key, Interval: iv})
			},
			OnWindow: func(index int, key string, window, windows int) {
				s.hub.Publish(events.Event{Type: events.TypeWindow, Job: j.id, Key: key, Window: window, Windows: windows})
			},
		})
		results, _ := backend.Run(ctx, leaders)
		// The observer already completed everything it saw finish; this
		// sweep covers custom backends and jobs the cancellation kept
		// from dispatching (which get no observer callback).
		for k := range leaders {
			var r sim.Result
			if k < len(results) {
				r = results[k]
			} else {
				r = sim.Result{Index: k, Key: leaders[k].Key(), Spec: leaders[k], Err: ctx.Err()}
			}
			if r.Err == nil && r.Stats == nil && results == nil {
				r.Err = errors.New("backend returned no result")
			}
			s.finishLeader(j, leaderIdx[k], leaderFlights[k], api.ResultFromSim(r, api.SourceRun))
		}
	}

	for _, w := range waits {
		select {
		case <-w.f.done:
			r := w.f.res
			r.Index, r.Key, r.Source = w.idx, j.specs[w.idx].Key(), api.SourceDedup
			s.complete(j, r)
		case <-ctx.Done():
			s.complete(j, api.Result{
				Index:    w.idx,
				Key:      j.specs[w.idx].Key(),
				CacheKey: j.specs[w.idx].CanonicalKey(),
				Source:   api.SourceDedup,
				Error:    ctx.Err().Error(),
			})
		}
	}

	j.finish(time.Now(), nil)
	s.retire(j)
	outcome := "completed"
	evType := events.TypeJobDone
	if j.failed() {
		s.metrics.jobsFailed.Add(1)
		outcome = "failed"
		evType = events.TypeJobFailed
	} else {
		s.metrics.jobsCompleted.Add(1)
	}
	st := j.status()
	s.hub.Publish(events.Event{Type: evType, Job: j.id, Specs: len(j.specs), Done: st.Done,
		WallMS: float64(st.Finished.Sub(st.Started).Microseconds()) / 1000})
	s.log.Info("job finish",
		"job_id", j.id,
		"outcome", outcome,
		"specs", len(j.specs),
		"ran", len(leaders),
		"cache_hits", st.CacheHits,
		"dedup_joins", st.DedupJoins,
		"duration_ms", float64(st.Finished.Sub(st.Started).Microseconds())/1000)
}

// retire records j as finished, dropping the oldest finished job from
// the book once it holds more than finishedJobs.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.id)
	if len(s.finished) > finishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// finishLeader settles a leader's flight with its result (caching
// successes, waking followers) and records it on the job. Only a result
// whose Source is SourceRun counts as a simulation on /metrics. Safe to
// call more than once per flight; only the first call takes effect.
func (s *Server) finishLeader(j *job, idx int, f *flight, res api.Result) {
	sp := &j.specs[idx]
	res.Index, res.Key, res.CacheKey = idx, sp.Key(), sp.CanonicalKey()
	f.once.Do(func() {
		if res.Source == api.SourceRun {
			s.countSim(j, res)
		}
		canonical := res
		canonical.Index = -1
		canonical.Key = res.CacheKey
		if res.Error == "" {
			s.cache.put(res.CacheKey, canonical)
			if s.cfg.Store != nil {
				// Write-behind: the result heads for disk immediately so a
				// restart stays warm even if the memory LRU never evicts it.
				s.cfg.Store.PutAsync(res.CacheKey, canonical)
			}
		}
		f.res = canonical
		s.flightMu.Lock()
		if s.flights[res.CacheKey] == f {
			delete(s.flights, res.CacheKey)
		}
		s.flightMu.Unlock()
		close(f.done)
	})
	s.complete(j, res)
}

// countSim adds one executed simulation to the metrics.
func (s *Server) countSim(j *job, res api.Result) {
	wall := time.Duration(res.WallNS)
	s.metrics.simsRun.Add(1)
	if res.Error != "" {
		s.metrics.simsFailed.Add(1)
		s.log.Warn("sim failed", "job_id", j.id, "spec_key", res.CacheKey, "error", res.Error)
	} else {
		s.log.Debug("sim done", "job_id", j.id, "spec_key", res.CacheKey,
			"wall_ms", float64(wall.Microseconds())/1000)
	}
	if st := res.Stats; st != nil {
		s.metrics.simCycles.Add(st.Cycles)
		s.metrics.simRetired.Add(st.Retired)
		s.metrics.l1dHits.Add(st.L1DHits)
		s.metrics.l1dMisses.Add(st.L1DMisses)
		s.metrics.l1dEvictions.Add(st.L1DEvictions)
		s.metrics.l2Hits.Add(st.L2Hits)
		s.metrics.l2Misses.Add(st.L2Misses)
		s.metrics.l2Evictions.Add(st.L2Evictions)
		s.metrics.dramAccesses.Add(st.DRAMAccesses)
	}
	s.metrics.simWallNS.Add(res.WallNS)
	s.metrics.simDur.Observe(wall)
}

// complete records res in its job slot and, if the slot was still open,
// broadcasts the spec_done event. The job publishes under its own lock,
// so each slot resolves on the bus exactly once and Done counts up in
// publication order.
func (s *Server) complete(j *job, res api.Result) {
	j.complete(res.Index, res, func(done int) {
		s.hub.Publish(events.Event{
			Type:            events.TypeSpecDone,
			Job:             j.id,
			Key:             res.Key,
			Source:          res.Source,
			Done:            done,
			WallMS:          float64(res.WallNS) / 1e6,
			IPC:             res.IPC,
			Extrapolated:    res.Extrapolated,
			ExtrapolatedIPC: res.ExtrapolatedIPC,
			IPCErrorEst:     res.IPCErrorEst,
			Error:           res.Error,
		})
	})
}

// flightObserver publishes leader completions as they happen, so stream
// subscribers and flight followers see results before the whole batch
// returns.
type flightObserver struct {
	s       *Server
	j       *job
	idx     []int
	flights []*flight
}

func (o *flightObserver) OnStart(index, total int, key string) {
	o.s.hub.Publish(events.Event{Type: events.TypeSpecStart, Job: o.j.id, Key: key})
}

func (o *flightObserver) OnFinish(index, total int, r sim.Result) {
	o.resolve(index, api.ResultFromSim(r, api.SourceRun))
}

// resolve is the job's JobHooks.Resolve.
func (o *flightObserver) resolve(index int, r api.Result) {
	o.s.finishLeader(o.j, o.idx[index], o.flights[index], r)
}

// ----------------------------------------------------------- handlers ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("no specs submitted"))
		return
	}
	specs := make([]sim.Spec, len(req.Specs))
	var verrs []error
	for i, ws := range req.Specs {
		sp, err := ws.Sim()
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			verrs = append(verrs, fmt.Errorf("spec %d: %w", i, err))
			continue
		}
		specs[i] = sp
	}
	if len(verrs) > 0 {
		s.writeError(w, http.StatusBadRequest, errors.Join(verrs...))
		return
	}

	// A job the cache holds whole runs right here, without the backend
	// and without a queue slot, so it is neither shed nor held behind
	// jobs whose specs are simulating.
	inline := s.cached(specs)
	if !inline {
		if err := s.cfg.Backend.Ready(); err != nil {
			s.writeError(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	j := newJob(fmt.Sprintf("j%d", s.nextID.Add(1)), specs, time.Now())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Sends happen only under s.mu, so a free slot stays free until the
	// send below; job_queued goes out first so no worker's job_start can
	// overtake it on the bus.
	admitted := inline || len(s.queue) < cap(s.queue)
	if admitted {
		s.jobs[j.id] = j
		s.hub.Publish(events.Event{Type: events.TypeJobQueued, Job: j.id, Specs: len(specs)})
		if !inline {
			s.queue <- j
		}
	}
	s.mu.Unlock()

	if !admitted {
		s.metrics.jobsRejected.Add(1)
		s.log.Warn("job rejected", "specs", len(specs), "queue_limit", s.cfg.QueueLimit)
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, api.Error{
			Error:        fmt.Sprintf("admission queue full (%d jobs)", s.cfg.QueueLimit),
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	s.log.Info("job submitted", "job_id", j.id, "specs", len(specs))
	resp := api.SubmitResponse{JobID: j.id, Total: len(specs)}
	if inline {
		s.runJob(j)
		resp.Results = j.completions()
	}
	writeSubmitted(w, resp)
}

// replyBytes is the most a submit reply may take to carry its job's
// results: room for a few dozen full-detail results, not for a sampled
// run's interval ring. A job whose results take more is answered without
// them, and its client reads the stream as for a queued job.
const replyBytes = 64 << 10

// writeSubmitted answers an admitted submission. A reply carrying
// results goes out with them only if it fits replyBytes.
func writeSubmitted(w http.ResponseWriter, resp api.SubmitResponse) {
	if resp.Results != nil {
		if body, err := json.Marshal(resp); err == nil && len(body) <= replyBytes {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write(append(body, '\n'))
			return
		}
		resp.Results = nil
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// lookup finds the job named by the request path, answering 404 itself
// when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := s.openStream(w, j.id, "stream")
	defer st.close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; ; i++ {
		e, ok := j.next(i, r.Context().Done())
		if !ok {
			return
		}
		buf.Reset()
		if err := enc.Encode(e); err != nil {
			s.streamError(j.id, "stream", err)
			return
		}
		if !st.write(buf.Bytes()) {
			return
		}
	}
}

// handleEvents streams the live event bus as NDJSON (/v1/events): the
// firehose by default, one job's events with ?job={id}, one
// deterministic JSON line per event. Publishers never wait on it: a
// subscriber whose buffer is full loses frames, and one that stops
// reading is dropped at the write deadline. Otherwise the stream runs
// until the client goes away or Shutdown has drained the jobs; it then
// ends after the events the jobs published.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	sub := s.hub.Subscribe(job, 0)
	defer sub.Close()
	st := s.openStream(w, job, "events")
	defer st.close()
	// Send the headers now: a client whose request has returned is then
	// subscribed, before any event exists.
	if !st.write(nil) {
		return
	}
	shutdown := s.baseCtx.Done()
	var buf []byte
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			buf = append(ev.AppendJSON(buf[:0]), '\n')
			if !st.write(buf) {
				return
			}
		case <-r.Context().Done():
			return
		case <-shutdown:
			// Close ends delivery; what is buffered still drains above.
			sub.Close()
			shutdown = nil
		}
	}
}

// ndjson is one open NDJSON response; /stream and /v1/events both
// write through it. Every write is bounded by StreamWriteTimeout and
// flushed, so a reader sees each line as it is written, and a reader
// that stops reading is dropped instead of pinning its handler. The deadline holds only while a write is under
// way: an idle stream has none that could pass, and close sets a fresh
// one for the closing chunk net/http writes after the handler returns.
type ndjson struct {
	s        *Server
	w        http.ResponseWriter
	rc       *http.ResponseController
	job      string // for the error log; "" on the event firehose
	endpoint string
}

// openStream starts an NDJSON response and counts it in the
// stream_connections gauge until close. The headers go out with the
// first write.
func (s *Server) openStream(w http.ResponseWriter, job, endpoint string) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.metrics.streamConns.Add(1)
	return &ndjson{s: s, w: w, rc: http.NewResponseController(w), job: job, endpoint: endpoint}
}

func (st *ndjson) close() {
	_ = st.rc.SetWriteDeadline(time.Now().Add(st.s.cfg.StreamWriteTimeout))
	st.s.metrics.streamConns.Add(-1)
}

// write sends b, whole lines, under the write deadline and flushes it
// (an empty b flushes just the headers), then clears the deadline. A
// failed write ends the stream: it is counted on
// msrd_stream_errors_total and write reports false.
func (st *ndjson) write(b []byte) bool {
	err := supported(st.rc.SetWriteDeadline(time.Now().Add(st.s.cfg.StreamWriteTimeout)))
	if err == nil && len(b) > 0 {
		_, err = st.w.Write(b)
	}
	if err == nil {
		err = supported(st.rc.Flush())
	}
	if err == nil {
		err = supported(st.rc.SetWriteDeadline(time.Time{}))
	}
	if err != nil {
		st.s.streamError(st.job, st.endpoint, err)
		return false
	}
	return true
}

// supported drops http.ErrNotSupported: a writer that cannot take a
// deadline or flush still streams, only without them.
func supported(err error) error {
	if errors.Is(err, http.ErrNotSupported) {
		return nil
	}
	return err
}

// streamError counts and logs one lost NDJSON stream record, so a
// truncated stream is visible on /metrics and in the logs rather than
// silent.
func (s *Server) streamError(jobID, endpoint string, err error) {
	s.metrics.streamErrors.Add(1)
	s.log.Warn("stream encode failed", "job_id", jobID, "endpoint", endpoint, "error", err.Error())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the orchestration readiness probe: 200 only when the
// daemon is not draining, its backend is ready and its admission queue
// has room. It serves load balancers and orchestrators. The fleet
// coordinator never calls it: it probes workers' /healthz, and a
// saturated worker answers a dispatch with 429, which client.Submit
// resubmits after the Retry-After hint.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	depth := len(s.queue)
	berr := s.cfg.Backend.Ready()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "draining"})
	case berr != nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": berr.Error()})
	case depth >= s.cfg.QueueLimit:
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "saturated", "queue_depth": depth})
	default:
		writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ready", "queue_depth": depth})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w, "msrd_")
}

// WriteMetrics renders the daemon's exposition with every series name
// under prefix: msrd_ on /metrics, msrfleet_ when a fleet coordinator
// unions it with its workers' msrd_* series.
func (s *Server) WriteMetrics(w io.Writer, prefix string) {
	s.metrics.write(w, prefix, len(s.queue), s.cache.len(), s.cfg.Store, s.cfg.Checkpoints, s.hub.Dropped(), time.Since(s.started).Seconds())
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.Error{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
