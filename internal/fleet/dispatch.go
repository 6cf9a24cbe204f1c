package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/obs"
	"mssr/internal/server"
	"mssr/internal/sim"
)

// unit is one leader spec of one coordinator job on its way through the
// ring.
type unit struct {
	job      *fleetJob
	idx      int // position in the job's leader specs
	spec     api.Spec
	key      string // sim.Spec.Key(), which the worker's frames carry
	shard    string // sim.Spec.ShardKey() (worker-placement identity)
	attempts int
	lastErr  string
}

// worker is one msrd daemon in the ring.
type worker struct {
	addr string
	cl   *client.Client

	// Guarded by the dispatcher's mu.
	healthy  bool
	failures int
	queue    []*unit
	inflight int
	// cancel ends the dispatch in flight (nil between dispatches).
	// markDown calls it, so a worker that stalls its result stream
	// cannot keep its specs once it is demoted.
	cancel context.CancelFunc

	dispatched atomic.Uint64
	completed  atomic.Uint64
}

// dispatcher is the worker ring, mounted as the coordinator server's
// Backend: every leader spec the server's cache and dedup cannot answer
// is sharded onto a worker's queue, dispatched in chunks, and handed
// back to the server's per-job hooks as it resolves.
type dispatcher struct {
	cfg      Config
	log      *slog.Logger
	met      ringMetrics
	probeDur *obs.Histogram
	// hub is the coordinator server's event bus: the ring publishes
	// dispatch, retry and membership events on it, and relays worker
	// telemetry into it.
	hub *events.Hub

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*worker
	orphans []*unit // units with no healthy worker to queue on
	closed  bool
	// subJobs maps "workerAddr subJobID" to the chunk's units, so the
	// relay can re-label a worker's job-scoped frames with the owning
	// coordinator job. Entries are dropped (after a grace for in-flight
	// frames) when the dispatch that registered them returns.
	subJobs map[string][]*unit

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func newDispatcher(cfg Config) *dispatcher {
	d := &dispatcher{
		cfg:      cfg,
		log:      cfg.Logger,
		probeDur: obs.NewHistogram(obs.DurationBuckets),
		workers:  make(map[string]*worker),
		subJobs:  make(map[string][]*unit),
	}
	d.cond = sync.NewCond(&d.mu)
	d.baseCtx, d.cancel = context.WithCancel(context.Background())
	return d
}

// start attaches the server's bus and joins the static workers.
func (d *dispatcher) start(hub *events.Hub) {
	d.hub = hub
	for _, addr := range d.cfg.Workers {
		_ = d.addWorker(addr)
	}
}

// stop ends every loop. The coordinator's server has drained (or
// cancelled) its jobs by now, so nothing waits on a unit still queued.
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
	d.cancel()
	d.wg.Wait()
}

var errNoWorkers = errors.New("no healthy workers")

// Ready implements server.Backend: the ring takes work while at least
// one worker is healthy.
func (d *dispatcher) Ready() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.healthyAddrsLocked()) == 0 {
		return errNoWorkers
	}
	return nil
}

// Job implements server.Backend.
func (d *dispatcher) Job(h server.JobHooks) sim.Backend {
	return &fleetJob{d: d, hooks: h}
}

// fleetJob runs one coordinator job's leader specs on the ring.
type fleetJob struct {
	d     *dispatcher
	hooks server.JobHooks
	specs []sim.Spec

	mu      sync.Mutex
	results []sim.Result
	left    int
	done    chan struct{}
}

// Run implements sim.Backend: it shards the specs onto the ring and
// waits until every one resolves, handing each to the server's Resolve
// hook as it does. A cancelled ctx returns nil results; the server then
// settles whatever it has not been handed with ctx's error.
func (j *fleetJob) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	j.specs = specs
	j.results = make([]sim.Result, len(specs))
	j.left = len(specs)
	j.done = make(chan struct{})
	units := make([]*unit, 0, len(specs))
	for i, sp := range specs {
		ws, err := api.FromSim(sp)
		if err != nil {
			j.finish(i, api.Result{Error: err.Error()})
			continue
		}
		units = append(units, &unit{job: j, idx: i, spec: ws, key: sp.Key(), shard: sp.ShardKey()})
	}
	d := j.d
	d.mu.Lock()
	for _, u := range units {
		d.enqueueLocked(u)
	}
	d.mu.Unlock()
	d.cond.Broadcast()
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]sim.Result(nil), j.results...), nil
}

// finish resolves spec i with its wire result and hands it to the
// server as is, so a result the worker answered from its cache or store
// keeps that Source. A spec the ring failed to dispatch carries no
// worker Source; it is reported as a failed run. The server settles
// every spec Run returns as one it ran, so the hand-off comes before
// the spec counts toward Run's return.
func (j *fleetJob) finish(i int, r api.Result) {
	if r.Source == "" {
		r.Source = api.SourceRun
	}
	j.hooks.Resolve(i, r)
	sr := r.Sim()
	sr.Index, sr.Key, sr.Spec = i, j.specs[i].Key(), j.specs[i]
	j.mu.Lock()
	j.results[i] = sr
	j.left--
	last := j.left == 0
	j.mu.Unlock()
	if last {
		close(j.done)
	}
}

// addWorker joins addr to the ring (idempotent) and starts its dispatch,
// event-relay and health-probe loops. The address is keyed the way its
// client canonicalizes it ("host:port" -> "http://host:port"), so one
// worker announced two ways cannot join twice.
func (d *dispatcher) addWorker(addr string) error {
	cl := client.New(addr)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("coordinator is draining")
	}
	if _, known := d.workers[cl.BaseURL]; known {
		return nil
	}
	w := &worker{addr: cl.BaseURL, cl: cl, healthy: true}
	d.workers[w.addr] = w
	d.met.registrations.Add(1)
	d.hub.Publish(events.Event{Type: events.TypeWorkerRegistered, Worker: w.addr})
	d.log.Info("worker registered", "worker", w.addr)
	d.wg.Add(3)
	go d.workerLoop(w)
	go d.relayLoop(w)
	go d.healthLoop(w)
	d.cond.Broadcast()
	return nil
}

// healthyAddrsLocked snapshots the healthy ring.
func (d *dispatcher) healthyAddrsLocked() []string {
	addrs := make([]string, 0, len(d.workers))
	for addr, w := range d.workers {
		if w.healthy {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// enqueueLocked routes one unit onto its rendezvous worker, or parks it
// with the orphans until a worker is healthy.
func (d *dispatcher) enqueueLocked(u *unit) {
	addrs := d.healthyAddrsLocked()
	if len(addrs) == 0 {
		d.orphans = append(d.orphans, u)
		return
	}
	w := d.workers[pick(addrs, u.shard)]
	w.queue = append(w.queue, u)
}

func (d *dispatcher) workersResponse() api.WorkersResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := api.WorkersResponse{Workers: make([]api.WorkerInfo, 0, len(d.workers))}
	for _, w := range d.workers {
		out.Workers = append(out.Workers, api.WorkerInfo{
			Addr:       w.addr,
			Healthy:    w.healthy,
			Queue:      len(w.queue),
			Inflight:   w.inflight,
			Dispatched: w.dispatched.Load(),
			Completed:  w.completed.Load(),
		})
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].Addr < out.Workers[j].Addr })
	return out
}

// ------------------------------------------------------------ dispatch ---

// workerLoop is one worker's dispatcher: it takes chunks from the
// worker's shard queue (or steals from a hot one), submits them as one
// sub-job, and feeds streamed completions back into the owning jobs.
func (d *dispatcher) workerLoop(w *worker) {
	defer d.wg.Done()
	for {
		units, ctx := d.take(w)
		if units == nil {
			return
		}
		d.dispatch(ctx, w, units)
		d.mu.Lock()
		w.inflight -= len(units)
		w.cancel()
		w.cancel = nil
		d.mu.Unlock()
		d.cond.Broadcast()
	}
}

// take blocks until the worker has work (own queue, orphans, or a steal)
// or the ring stops (nil). The units come with the context of their
// dispatch, which markDown cancels.
func (d *dispatcher) take(w *worker) ([]*unit, context.Context) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil, nil
		}
		var units []*unit
		if w.healthy {
			units = d.takeFromLocked(&d.orphans, w)
			if units == nil {
				units = d.takeFromLocked(&w.queue, w)
			}
			if units == nil {
				units = d.stealLocked(w)
			}
		}
		if units != nil {
			ctx, cancel := context.WithCancel(d.baseCtx)
			w.cancel = cancel
			return units, ctx
		}
		d.cond.Wait()
	}
}

// takeFromLocked pops up to a chunk from the head of q for w.
func (d *dispatcher) takeFromLocked(q *[]*unit, w *worker) []*unit {
	if len(*q) == 0 {
		return nil
	}
	n := min(len(*q), d.cfg.ChunkSize)
	units := append([]*unit(nil), (*q)[:n]...)
	*q = (*q)[n:]
	w.inflight += n
	return units
}

// stealLocked moves the tail end of the deepest healthy backlog (the work
// its owner would reach last) onto w: half of it, or its one unit when
// the owner is busy with a dispatch, at most a chunk. An idle owner's
// queue that fits one chunk is left to that owner, which is about to
// take it whole in one dispatch: a steal would only run those specs, and
// cache their results, off their home worker.
func (d *dispatcher) stealLocked(w *worker) []*unit {
	var victim *worker
	for _, v := range d.workers {
		if v == w || !v.healthy || len(v.queue) == 0 || (v.inflight == 0 && len(v.queue) <= d.cfg.ChunkSize) {
			continue
		}
		if victim == nil || len(v.queue) > len(victim.queue) {
			victim = v
		}
	}
	if victim == nil {
		return nil
	}
	n := min(max(1, len(victim.queue)/2), d.cfg.ChunkSize)
	cut := len(victim.queue) - n
	units := append([]*unit(nil), victim.queue[cut:]...)
	victim.queue = victim.queue[:cut]
	w.inflight += n
	d.met.steals.Add(1)
	d.met.unitsStolen.Add(uint64(n))
	d.hub.Publish(events.Event{Type: events.TypeSteal, Worker: victim.addr, Specs: n})
	d.log.Info("work stolen", "thief", w.addr, "victim", victim.addr, "units", n, "victim_queue", len(victim.queue))
	return units
}

// dispatch submits one chunk to w as a single sub-job under ctx and
// resolves every unit from the worker's completion stream. Units the
// worker failed to resolve, or had not resolved when ctx was cancelled,
// are retried on the re-hashed ring.
func (d *dispatcher) dispatch(ctx context.Context, w *worker, units []*unit) {
	specs := make([]api.Spec, len(units))
	for i, u := range units {
		specs[i] = u.spec
	}
	w.dispatched.Add(uint64(len(units)))

	resolved := make([]bool, len(units))
	var retry []*unit
	settle := func(i int, r api.Result) {
		if resolved[i] {
			return
		}
		resolved[i] = true
		u := units[i]
		if r.Error != "" && u.attempts+1 < d.cfg.MaxAttempts {
			// A per-result error from a live worker is usually a
			// cancelled simulation (worker draining); give the spec its
			// remaining attempts elsewhere before surfacing it.
			u.lastErr = r.Error
			retry = append(retry, u)
			return
		}
		w.completed.Add(1)
		d.complete(u, r)
	}

	sub, err := w.cl.Submit(ctx, specs)
	if err == nil {
		// Register the sub-job so the relay can re-label this worker's
		// frames with the owning coordinator jobs. The mapping outlives
		// the dispatch by a grace period: relay frames travel on their
		// own connection and may still be in flight when the result
		// stream ends.
		relayKey := w.addr + " " + sub.JobID
		d.mu.Lock()
		d.subJobs[relayKey] = units
		d.mu.Unlock()
		defer time.AfterFunc(5*time.Second, func() {
			d.mu.Lock()
			delete(d.subJobs, relayKey)
			d.mu.Unlock()
		})
		for _, u := range units {
			d.hub.Publish(events.Event{Type: events.TypeSpecDispatched, Job: u.job.hooks.Job, Key: u.key, Worker: w.addr})
		}
		serr := w.cl.Stream(ctx, sub.JobID, func(r api.Result) error {
			if r.Index >= 0 && r.Index < len(units) {
				settle(r.Index, r)
			}
			return nil
		})
		if slices.Contains(resolved, false) {
			// Broken or truncated stream: one authoritative status fetch
			// picks up anything the worker did finish.
			if st, jerr := w.cl.Job(ctx, sub.JobID); jerr == nil && st.State == api.StateDone {
				for _, r := range st.Results {
					if r.Index >= 0 && r.Index < len(units) {
						settle(r.Index, r)
					}
				}
			} else if serr == nil {
				serr = jerr
			}
			err = serr
			if err == nil {
				err = errors.New("worker stream ended with unresolved specs")
			}
		}
	}

	var unresolved []*unit
	for i, u := range units {
		if !resolved[i] {
			unresolved = append(unresolved, u)
			if err != nil {
				u.lastErr = err.Error()
			}
		}
	}
	if err != nil && len(unresolved) > 0 {
		// The worker failed this dispatch outright: demote it (its
		// health-probe loop revives it when it answers again) and re-hash
		// its unresolved specs across the rest of the ring.
		d.markDown(w, fmt.Sprintf("dispatch failed: %v", err))
	}
	retry = append(retry, unresolved...)
	if len(retry) > 0 {
		d.hub.Publish(events.Event{Type: events.TypeRetry, Worker: w.addr, Specs: len(retry)})
		d.requeue(retry)
	}
}

// requeue gives failed units another attempt (with backoff scaled by
// their attempt count) or completes them with their last error once the
// budget is spent.
func (d *dispatcher) requeue(units []*unit) {
	var again []*unit
	maxAttempt := 0
	for _, u := range units {
		u.attempts++
		if u.attempts >= d.cfg.MaxAttempts {
			d.met.unitFailures.Add(1)
			d.complete(u, api.Result{Error: fmt.Sprintf("dispatch failed after %d attempts: %s", u.attempts, u.lastErr)})
			continue
		}
		maxAttempt = max(maxAttempt, u.attempts)
		again = append(again, u)
	}
	if len(again) == 0 {
		return
	}
	d.met.retries.Add(uint64(len(again)))
	// Backoff in the failing worker's loop: the units land on other
	// workers' queues afterwards, so only this loop pays the delay.
	select {
	case <-time.After(time.Duration(maxAttempt) * d.cfg.RetryBackoff):
	case <-d.baseCtx.Done():
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return // nothing waits on them any more (see stop)
	}
	for _, u := range again {
		d.enqueueLocked(u)
	}
	d.cond.Broadcast()
}

// complete resolves one unit into its job.
func (d *dispatcher) complete(u *unit, r api.Result) {
	d.met.unitsCompleted.Add(1)
	u.job.finish(u.idx, r)
}

// -------------------------------------------------------------- health ---

// healthLoop probes one worker's liveness endpoint each interval. Each
// worker has its own, so a probe that hangs delays no other worker's.
func (d *dispatcher) healthLoop(w *worker) {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.HealthInterval)
	defer t.Stop()
	// Probes get a floor on their deadline independent of the probing
	// cadence: a dead worker fails instantly (connection refused), so a
	// generous timeout only affects hung-but-connected workers, while a
	// tight one would demote healthy workers on scheduler hiccups.
	probeTimeout := max(d.cfg.HealthInterval, time.Second)
	for {
		select {
		case <-d.baseCtx.Done():
			return
		case <-t.C:
		}
		pctx, cancel := context.WithTimeout(d.baseCtx, probeTimeout)
		t0 := time.Now()
		err := w.cl.Health(pctx)
		d.probeDur.Observe(time.Since(t0))
		cancel()
		d.noteProbe(w, err)
	}
}

// noteProbe records one probe outcome and flips worker health at the
// configured thresholds.
func (d *dispatcher) noteProbe(w *worker, err error) {
	if err == nil {
		d.mu.Lock()
		w.failures = 0
		revived := !w.healthy
		w.healthy = true
		d.mu.Unlock()
		if revived {
			d.hub.Publish(events.Event{Type: events.TypeWorkerUp, Worker: w.addr})
			d.log.Info("worker healthy", "worker", w.addr)
			d.cond.Broadcast()
		}
		return
	}
	d.mu.Lock()
	w.failures++
	demote := w.healthy && w.failures >= d.cfg.HealthFailures
	d.mu.Unlock()
	if demote {
		d.markDown(w, fmt.Sprintf("health probe failed: %v", err))
	}
}

// markDown demotes a worker, re-homes its queued units and cancels its
// dispatch in flight, which then retries the units it has not resolved.
func (d *dispatcher) markDown(w *worker, reason string) {
	d.mu.Lock()
	if !w.healthy {
		d.mu.Unlock()
		return
	}
	w.healthy = false
	w.failures = d.cfg.HealthFailures
	if w.cancel != nil {
		w.cancel()
	}
	moved := w.queue
	w.queue = nil
	for _, u := range moved {
		d.enqueueLocked(u)
	}
	d.mu.Unlock()
	d.hub.Publish(events.Event{Type: events.TypeWorkerDown, Worker: w.addr, Specs: len(moved), Error: reason})
	d.log.Warn("worker down", "worker", w.addr, "reason", reason, "requeued", len(moved))
	d.cond.Broadcast()
}

// ---------------------------------------------------------------- relay ---

// relayLoop keeps one worker's event relay attached: it subscribes to
// the worker's /v1/events firehose and pumps its telemetry into the
// server's bus, reconnecting with bounded backoff — a worker without the
// endpoint (or down) costs one cheap request per backoff and nothing
// else.
func (d *dispatcher) relayLoop(w *worker) {
	defer d.wg.Done()
	backoff := relayBackoff
	for d.baseCtx.Err() == nil {
		_ = w.cl.Events(d.baseCtx, "", func(ev events.Event) error {
			backoff = relayBackoff
			d.relay(w, ev)
			return nil
		})
		select {
		case <-time.After(backoff):
		case <-d.baseCtx.Done():
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// relayBackoff is the first reconnect delay after a worker's event
// stream drops; it doubles per failed attempt up to 2s.
const relayBackoff = 200 * time.Millisecond

// relay forwards one worker frame into the server's bus. Only telemetry
// frames are forwarded (interval, window, spec_start), re-labelled with
// the owning coordinator job and worker="addr" — lifecycle events come
// from the coordinator's own server, so the bus never carries
// duplicates. Frames that cannot be mapped to a coordinator job (a
// client talking to the worker directly, or a frame arriving after its
// sub-job's grace period) are dropped.
func (d *dispatcher) relay(w *worker, ev events.Event) {
	switch ev.Type {
	case events.TypeInterval, events.TypeWindow, events.TypeSpecStart:
	default:
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, u := range d.subJobs[w.addr+" "+ev.Job] {
		if u.key == ev.Key {
			ev.Job, ev.Worker = u.job.hooks.Job, w.addr
			d.hub.Publish(ev) // Publish re-stamps Seq and TimeNS for this bus
			return
		}
	}
}
